(* rc-lint fixture: a clean file. Atomic use outside the protocol
   directories is fine, as is Fun.protect (scoped finalization, not
   slot protection). Never compiled. *)
let counter = Atomic.make 0
let bump () = Atomic.fetch_and_add counter 1

let with_file path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)
