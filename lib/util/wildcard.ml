type t = { lowered : string }

let compile source = { lowered = String.lowercase_ascii source }

(* Iterative glob match with single-star backtracking: O(|p| * |s|) worst
   case, linear in practice. [si]/[pi] are cursors; on mismatch after a '*'
   we resume at [star_pi + 1] with the star consuming one more character. *)
let match_lowered p s =
  let np = String.length p and ns = String.length s in
  let rec only_stars i = i = np || (p.[i] = '*' && only_stars (i + 1)) in
  let rec go si pi star_pi star_si =
    if si = ns then only_stars pi
    else if pi < np && p.[pi] = '*' then go si (pi + 1) pi si
    else if pi < np && (p.[pi] = '?' || p.[pi] = s.[si]) then
      go (si + 1) (pi + 1) star_pi star_si
    else if star_pi >= 0 then go (star_si + 1) (star_pi + 1) star_pi (star_si + 1)
    else false
  in
  go 0 0 (-1) (-1)

let matches t s = match_lowered t.lowered (String.lowercase_ascii s)

let matches_any ts s =
  let lowered = String.lowercase_ascii s in
  List.exists (fun t -> match_lowered t.lowered lowered) ts
