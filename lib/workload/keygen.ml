(** Deterministic seeded key generators for the serving workload
    (DESIGN.md §12).

    The determinism contract: a generator is a pure function of
    [(spec, seed, range)] — [next] consumes only its own PRNG stream,
    so the same triple yields a bit-identical key sequence on every
    host, every run, and every thread interleaving (each worker owns
    its generator). test/test_kv.ml pins golden sequences against this
    contract.

    Three families, mirroring the skew regimes the reclamation papers
    disagree on (Hyaline §6, Stamp-it §5 — scheme rankings flip under
    skew):

    + {b Uniform}: every key equally likely — the paper's own Fig 13
      regime.
    + {b Zipfian}: YCSB-style bounded Zipf over ranks with parameter
      [theta] (0 < theta < 1; 0.99 is the YCSB default). Rank [r]'s
      probability is proportional to [1/(r+1)^theta]; rank 0 is the
      hottest. Ranks are scattered over the key space by a fixed
      Fibonacci permutation so that popular keys do not collide into
      neighbouring hash-table buckets.
    + {b Hotspot}: a contiguous hot set of [hot_keys] keys receives
      [hot_pct]% of draws; every [shift_every] draws the hot set
      {e migrates} to a new deterministic position: a workload phase
      change. *)

type spec =
  | Uniform
  | Zipfian of { theta : float }
  | Hotspot of { hot_keys : int; hot_pct : int; shift_every : int }

let spec_to_string = function
  | Uniform -> "uniform"
  | Zipfian { theta } -> Printf.sprintf "zipf:%.2f" theta
  | Hotspot { hot_keys; hot_pct; shift_every } ->
      Printf.sprintf "hotspot:%d:%d:%d" hot_keys hot_pct shift_every

(* "uniform" | "zipf" | "zipf:0.99" | "hotspot" | "hotspot:KEYS:PCT:SHIFT" *)
let spec_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "uniform" ] -> Ok Uniform
  | [ "zipf" ] -> Ok (Zipfian { theta = 0.99 })
  | [ "zipf"; t ] -> (
      match float_of_string_opt t with
      | Some theta when theta > 0.0 && theta < 1.0 -> Ok (Zipfian { theta })
      | _ -> Error (Printf.sprintf "zipf theta must be in (0,1): %S" t))
  | [ "hotspot" ] -> Ok (Hotspot { hot_keys = 128; hot_pct = 90; shift_every = 50_000 })
  | [ "hotspot"; k; p; e ] -> (
      match (int_of_string_opt k, int_of_string_opt p, int_of_string_opt e) with
      | Some hot_keys, Some hot_pct, Some shift_every
        when hot_keys > 0 && hot_pct >= 0 && hot_pct <= 100 && shift_every > 0 ->
          Ok (Hotspot { hot_keys; hot_pct; shift_every })
      | _ -> Error (Printf.sprintf "hotspot spec must be hotspot:KEYS:PCT:SHIFT: %S" s))
  | _ -> Error (Printf.sprintf "unknown keygen spec %S (uniform | zipf[:THETA] | hotspot[:KEYS:PCT:SHIFT])" s)

(* Fibonacci scatter: an odd multiplier is a bijection modulo 2^62, so
   ranks map to distinct keys when [range] is reached by [mod] — not a
   bijection then, but collisions are rare and harmless (two ranks
   sharing a key just add their probabilities). *)
let scatter rank range = rank * 0x2545F4914F6CDD1D land max_int mod range

type state =
  | U
  | Z of {
      z_theta : float;
      z_zetan : float; (* zeta(range, theta) *)
      z_alpha : float;
      z_eta : float;
    }
  | H of {
      mutable h_base : int; (* current hot-set origin *)
      mutable h_drawn : int; (* draws since the last shift *)
      mutable h_shifts : int; (* completed migrations *)
      h_keys : int;
      h_pct : int;
      h_every : int;
    }

type t = { rng : Repro_util.Rng.t; range : int; state : state; spec : spec }

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

(* Deterministic hot-set origin for migration [i]: scattered over the
   key space so consecutive phases do not overlap for any sane
   (range, hot_keys). *)
let hot_origin ~seed ~range i = (seed + ((i + 1) * 0x9E3779B97F4A7))  land max_int mod range

let create ~seed ~range spec =
  if range <= 0 then invalid_arg "Keygen.create: range must be positive";
  let rng = Repro_util.Rng.create ~seed in
  let state =
    match spec with
    | Uniform -> U
    | Zipfian { theta } ->
        (* YCSB's ScrambledZipfian constants: closed-form inverse-CDF
           sampling after precomputing zeta(range, theta). *)
        let zetan = zeta range theta in
        let zeta2 = zeta 2 theta in
        let alpha = 1.0 /. (1.0 -. theta) in
        let eta =
          (1.0 -. Float.pow (2.0 /. float_of_int range) (1.0 -. theta))
          /. (1.0 -. (zeta2 /. zetan))
        in
        Z { z_theta = theta; z_zetan = zetan; z_alpha = alpha; z_eta = eta }
    | Hotspot { hot_keys; hot_pct; shift_every } ->
        H
          {
            h_base = hot_origin ~seed ~range 0;
            h_drawn = 0;
            h_shifts = 0;
            h_keys = min hot_keys range;
            h_pct = hot_pct;
            h_every = shift_every;
          }
  in
  { rng; range; state; spec }

let spec t = t.spec
let range t = t.range

(** The rank drawn by the Zipfian inverse CDF, before scattering —
    exposed so the distribution tests can check rank-frequency
    monotonicity without inverting the scatter. *)
let zipf_rank t =
  match t.state with
  | Z z ->
      let u = Repro_util.Rng.float t.rng in
      let uz = u *. z.z_zetan in
      if uz < 1.0 then 0
      else if uz < 1.0 +. Float.pow 0.5 z.z_theta then 1
      else
        int_of_float
          (float_of_int t.range
          *. Float.pow ((z.z_eta *. u) -. z.z_eta +. 1.0) z.z_alpha)
        |> min (t.range - 1)
  | _ -> invalid_arg "Keygen.zipf_rank: not a Zipfian generator"

(** Completed hot-set migrations (0 for non-hotspot generators). *)
let shifts t = match t.state with H h -> h.h_shifts | _ -> 0

(** Current hot-set origin, for tests. *)
let hot_base t =
  match t.state with
  | H h -> h.h_base
  | _ -> invalid_arg "Keygen.hot_base: not a hotspot generator"

let next t =
  match t.state with
  | U -> Repro_util.Rng.int t.rng t.range
  | Z _ -> scatter (zipf_rank t) t.range
  | H h ->
      if h.h_drawn >= h.h_every then begin
        h.h_drawn <- 0;
        h.h_shifts <- h.h_shifts + 1;
        (* The new origin is drawn from the same PRNG stream, so it is
           covered by the determinism contract: same (spec, seed,
           range) → same migration schedule. *)
        h.h_base <- hot_origin ~seed:(Repro_util.Rng.int t.rng max_int) ~range:t.range 0
      end;
      h.h_drawn <- h.h_drawn + 1;
      if Repro_util.Rng.int t.rng 100 < h.h_pct then
        (h.h_base + Repro_util.Rng.int t.rng h.h_keys) mod t.range
      else Repro_util.Rng.int t.rng t.range
