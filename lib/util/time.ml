type t = int

let us n = n
let ms n = n * 1_000
let sec n = n * 1_000_000
let of_ms_float f = int_of_float (Float.round (f *. 1_000.0))
let to_ms_float t = float_of_int t /. 1_000.0
let to_sec_float t = float_of_int t /. 1_000_000.0

let round_to d ~granularity =
  assert (granularity > 0);
  if d <= 0 then granularity
  else (d + granularity - 1) / granularity * granularity

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dus" t
  else if a < 1_000_000 then Format.fprintf fmt "%.1fms" (to_ms_float t)
  else Format.fprintf fmt "%.2fs" (to_sec_float t)

let to_string t = Format.asprintf "%a" pp t
