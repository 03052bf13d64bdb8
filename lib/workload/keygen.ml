(** Deterministic seeded key generators for the serving workload
    (DESIGN.md §12).

    The determinism contract: a generator is a pure function of
    [(spec, seed, range)] — [next] consumes only its own PRNG stream,
    so the same triple yields a bit-identical key sequence on every
    host, every run, and every thread interleaving (each worker owns
    its generator). test/test_kv.ml pins golden sequences against this
    contract.

    Two families, mirroring the skew regimes the reclamation papers
    disagree on (Hyaline §6, Stamp-it §5 — scheme rankings flip under
    skew):

    + {b Uniform}: every key equally likely — the paper's own Fig 13
      regime.
    + {b Zipfian}: YCSB-style bounded Zipf over ranks with parameter
      [theta] (0 < theta < 1; 0.99 is the YCSB default). Rank [r]'s
      probability is proportional to [1/(r+1)^theta]; rank 0 is the
      hottest. Ranks are scattered over the key space by a fixed
      Fibonacci permutation so that popular keys do not collide into
      neighbouring hash-table buckets. *)

type spec = Uniform | Zipfian of { theta : float }

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

type t = { rng : Repro_util.Rng.t; range : int; state : state; spec : spec }

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

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

let next t =
  match t.state with
  | U -> Repro_util.Rng.int t.rng t.range
  | Z _ -> scatter (zipf_rank t) t.range
