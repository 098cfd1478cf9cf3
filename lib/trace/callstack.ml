type t = Signature.t array

let of_list frames = Array.of_list frames
let init = Array.init
let of_strings texts = Array.of_list (List.map Signature.of_string texts)
let frames t = t
let top t = if Array.length t = 0 then None else Some t.(0)
let depth = Array.length

let push f t =
  let n = Array.length t in
  let fresh = Array.make (n + 1) f in
  Array.blit t 0 fresh 1 n;
  fresh

let equal a b = Array.length a = Array.length b && Array.for_all2 Signature.equal a b

let hash t = Hashtbl.hash (Array.map Signature.to_int t)
