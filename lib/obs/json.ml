(* The one JSON codec (DESIGN.md §7, §11).

   Every JSON byte the system writes (perf summaries, `stats --json`,
   the trace JSONL) is built as a [t] and printed by [to_string];
   every JSON byte it reads goes through [of_string]. The printer is
   compact and fixed-precision, so outputs are diff-stable; the parser
   is strict RFC 8259 and returns [Error] instead of raising on any
   input. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* [open_] items [close], comma-separated. *)
let add_seq b open_ close add items =
  Buffer.add_char b open_;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add x)
    items;
  Buffer.add_char b close

let to_string v =
  let b = Buffer.create 1024 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    (* Fixed precision keeps outputs diff-stable; decoding reads back
       exactly the printed value, not the original bits. *)
    | Float f -> Printf.bprintf b "%.6f" f
    | String s -> Printf.bprintf b "\"%s\"" (escape s)
    | List l -> add_seq b '[' ']' go l
    | Obj kvs ->
        add_seq b '{' '}'
          (fun (k, v) ->
            Printf.bprintf b "\"%s\":" (escape k);
            go v)
          kvs
  in
  go v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Syntax of string

(* Nesting deeper than any emitter produces is an error, not a stack hazard. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end";
    incr pos;
    s.[!pos - 1]
  in
  let skip_while p =
    while match peek () with Some c -> p c | None -> false do
      incr pos
    done
  in
  let skip_ws () = skip_while (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false) in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %c" c) in
  let hex () =
    match next () with
    | '0' .. '9' as c -> Char.code c - 48
    | 'a' .. 'f' as c -> Char.code c - 87
    | 'A' .. 'F' as c -> Char.code c - 55
    | _ -> fail "bad \\u escape"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char b c
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let h = List.fold_left (fun h _ -> (h lsl 4) lor hex ()) 0 [ 1; 2; 3; 4 ] in
              (* A lone surrogate has no UTF-8 encoding. *)
              Buffer.add_utf_8_uchar b (if Uchar.is_valid h then Uchar.of_int h else Uchar.rep)
          | _ -> fail "bad escape");
          go ()
      | c when Char.code c < 0x20 -> fail "control char in string"
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let digits () =
    let d0 = !pos in
    skip_while (function '0' .. '9' -> true | _ -> false);
    if !pos = d0 then fail "expected digit"
  in
  (* Integral literals are [Int] unless out of range, in which case
     they read as [Float] so [to_int] rejects them. *)
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    if peek () = Some '0' then incr pos else digits ();
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    match if !integral then int_of_string_opt lit else None with
    | Some i -> Int i
    | None -> Float (float_of_string lit)
  in
  let keyword k v =
    String.iter (fun c -> if next () <> c then fail ("expected " ^ k)) k;
    v
  in
  (* [items] parses a comma-separated sequence closed by [close]. *)
  let items close item =
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match next () with
        | ',' -> go (x :: acc)
        | c when c = close -> List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected , or %c" close)
      in
      go []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '"' -> String (string_lit ())
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> keyword "true" (Bool true)
    | Some 'f' -> keyword "false" (Bool false)
    | Some 'n' -> keyword "null" Null
    | Some '[' ->
        incr pos;
        List (items ']' (fun () -> value (depth + 1)))
    | Some '{' ->
        incr pos;
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let k = string_lit () in
               skip_ws ();
               expect ':';
               (k, value (depth + 1))))
    | _ -> fail "expected value"
  in
  try
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    Ok v
  with Syntax msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Decoding *)

(* The path from the decoded root to the failing value, and what went
   wrong there. Only [decode] catches it. *)
exception Decode of string list * string

let mismatch want = raise (Decode ([], "expected " ^ want))

let at seg dec v = try dec v with Decode (path, msg) -> raise (Decode (seg :: path, msg))

let field name dec = function
  | Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> at ("." ^ name) dec v
      | None -> raise (Decode ([], "missing field " ^ name)))
  | _ -> mismatch "an object"

let to_int = function Int i -> i | _ -> mismatch "an integer"
let to_float = function Float f -> f | Int i -> float_of_int i | _ -> mismatch "a number"
let to_string_ = function String s -> s | _ -> mismatch "a string"

let to_list dec = function
  | List l -> List.mapi (fun i v -> at (Printf.sprintf "[%d]" i) dec v) l
  | _ -> mismatch "an array"

let decode dec v =
  try Ok (dec v)
  with Decode (path, msg) ->
    let p = String.concat "" path in
    let p = if String.starts_with ~prefix:"." p then String.sub p 1 (String.length p - 1) else p in
    Error (if p = "" then msg else p ^ ": " ^ msg)
