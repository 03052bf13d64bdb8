(* Tests for the rc-lint engine (DESIGN.md §9) over the fixture corpus
   in test/lint_fixtures: every rule fires exactly where expected,
   suppression attributes silence exactly one site, clean files stay
   clean, and parse failures surface as findings rather than crashes. *)

module Lint = Rc_lint_lib.Lint
module Finding = Rc_lint_lib.Finding

let fixture name = Filename.concat "lint_fixtures" name

let rules_of findings =
  List.map (fun f -> f.Finding.rule) findings |> List.sort String.compare

let check_rules name expected =
  let got = rules_of (Lint.lint_file (fixture name)) in
  Alcotest.(check (list string)) name (List.sort String.compare expected) got

let test_bad_files () =
  check_rules "core/bad_r1_counter.ml" [ "R1"; "R1" ];
  check_rules "core/bad_r1_open.ml" [ "R1" ];
  check_rules "smr/bad_r1_stdlib.ml" [ "R1" ];
  check_rules "bad_r4_obj_magic.ml" [ "R4" ];
  check_rules "obs/bad_r6_counter.ml" [ "R6"; "R6" ]

let test_clean_files () =
  check_rules "clean.ml" [];
  check_rules "acquire_retire/suppressed_r1.ml" [];
  check_rules "suppressed_r4.ml" []

(* bad_r4_obj_magic.ml holds two identical Obj escapes; the annotated
   one must be silent and the other must still fire. *)
let test_suppression_site_granular () =
  match Lint.lint_file (fixture "bad_r4_obj_magic.ml") with
  | [ f ] ->
      Alcotest.(check string) "rule" "R4" f.Finding.rule;
      Alcotest.(check bool) "fires on the unannotated binding" true (f.Finding.line >= 5)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_corpus_total () =
  let fs = Lint.lint_paths [ "lint_fixtures" ] in
  Alcotest.(check int) "total corpus findings" 7 (List.length fs)

let test_allowlist_gates_r4 () =
  let src = "let key x = Obj.repr x\n" in
  let flagged = Lint.lint_string ~filename:"lib/smr/ident.ml" src in
  Alcotest.(check (list string)) "flagged without allowlist" [ "R4" ] (rules_of flagged);
  let ok =
    Lint.lint_string ~allow_unsafe:[ "lib/smr/ident.ml" ] ~filename:"lib/smr/ident.ml" src
  in
  Alcotest.(check int) "clean with allowlist" 0 (List.length ok)

(* A type path through a functor application cannot be flattened; no
   rule matches it, and the lint must neither crash nor misreport. *)
let test_functor_application_path () =
  let fs = Lint.lint_string ~filename:"lib/core/rc_cell.ml" "type t = Set.Make(Int).t\n" in
  Alcotest.(check int) "no finding" 0 (List.length fs)

let test_parse_failure_is_a_finding () =
  match Lint.lint_string ~filename:"broken.ml" "let = =" with
  | [ f ] -> Alcotest.(check string) "rule" "parse" f.Finding.rule
  | fs -> Alcotest.failf "expected one parse finding, got %d" (List.length fs)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_json_output () =
  let fs = Lint.lint_file (fixture "bad_r4_obj_magic.ml") in
  let json = Finding.list_to_json fs in
  Alcotest.(check bool) "versioned" true (contains ~sub:{|"version":1|} json);
  Alcotest.(check bool) "count" true (contains ~sub:{|"count":1|} json);
  Alcotest.(check bool) "rule field" true (contains ~sub:{|"rule":"R4"|} json)

let () =
  Alcotest.run "lint"
    [
      ( "corpus",
        [
          Alcotest.test_case "bad files flagged" `Quick test_bad_files;
          Alcotest.test_case "clean files clean" `Quick test_clean_files;
          Alcotest.test_case "suppression is site-granular" `Quick
            test_suppression_site_granular;
          Alcotest.test_case "corpus total" `Quick test_corpus_total;
        ] );
      ( "engine",
        [
          Alcotest.test_case "allowlist gates R4" `Quick test_allowlist_gates_r4;
          Alcotest.test_case "functor application path" `Quick
            test_functor_application_path;
          Alcotest.test_case "parse failure is a finding" `Quick
            test_parse_failure_is_a_finding;
          Alcotest.test_case "json output" `Quick test_json_output;
        ] );
    ]
