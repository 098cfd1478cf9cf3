(* SplitMix64. Reference: Steele, Lea & Flood, "Fast Splittable
   Pseudorandom Number Generators", OOPSLA'14. The gamma used for [split]
   is the canonical odd constant; mixing uses the murmur-style finalizer. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = seed }

let of_int seed =
  (* Root-generator creations are the reproducibility anchors of a run;
     visible under --log-level debug, silent otherwise. *)
  Logf.debug "prng: root generator seeded with %d" seed;
  create (Int64.of_int seed)

let next_int64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let split g =
  let seed = next_int64 g in
  create (mix64 seed)

(* Non-negative 62-bit int from the top bits; OCaml ints are 63-bit. *)
let next_int g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2)

let int g bound =
  assert (bound > 0);
  next_int g mod bound

let int_in g lo hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

let unit_float g =
  (* 53 random bits into [0,1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) in
  bits /. 9007199254740992.0

let float g bound = unit_float g *. bound

let chance g p =
  if p <= 0.0 then false else if p >= 1.0 then true else unit_float g < p

let gaussian g =
  (* Box–Muller; one value per call keeps the generator stateless apart
     from its counter, which preserves split independence. *)
  let u1 = 1.0 -. unit_float g and u2 = unit_float g in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let lognormal g ~median ~sigma =
  let mu = log median in
  exp (mu +. (sigma *. gaussian g))

let choose g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))

let choose_weighted g weighted =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
  assert (total > 0.0);
  let target = float g total in
  let rec pick acc = function
    | [] -> invalid_arg "Prng.choose_weighted: empty"
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if acc +. w > target then x else pick (acc +. w) rest
  in
  pick 0.0 weighted
