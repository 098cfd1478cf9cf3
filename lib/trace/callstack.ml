type t = Signature.t array

let of_list frames = Array.of_list frames
let init = Array.init
let frames t = t
let top t = if Array.length t = 0 then None else Some t.(0)
let depth = Array.length

let equal a b = Array.length a = Array.length b && Array.for_all2 Signature.equal a b
