type ci = { point : float; mean : float; lo : float; hi : float }

type t = {
  ia_wait : ci;
  ia_run : ci;
  ia_opt : ci;
  propagation_ratio : ci;
  replicates : int;
}

let merge_all = List.fold_left Impact.merge Impact.empty

let ci_of point samples =
  {
    point;
    mean = Dputil.Stats.mean samples;
    lo = Dputil.Stats.percentile samples 2.5;
    hi = Dputil.Stats.percentile samples 97.5;
  }

let bootstrap ?(replicates = 200) ?(seed = 1) streams =
  if replicates < 1 then invalid_arg "Robustness.bootstrap: replicates < 1";
  let per_stream = Array.of_list streams in
  let n = Array.length per_stream in
  let prng = Dputil.Prng.of_int seed in
  (* Both inits call in index order: one fixed PRNG draw sequence. *)
  let samples =
    Array.init replicates (fun _ ->
        merge_all (List.init n (fun _ -> per_stream.(Dputil.Prng.int prng n))))
  in
  let full = merge_all streams in
  let ci metric = ci_of (metric full) (Array.map metric samples) in
  {
    ia_wait = ci Impact.ia_wait;
    ia_run = ci Impact.ia_run;
    ia_opt = ci Impact.ia_opt;
    propagation_ratio = ci Impact.propagation_ratio;
    replicates;
  }

let contains ci v = ci.lo <= v && v <= ci.hi

let pp_ci_pct fmt ci =
  Format.fprintf fmt "%.1f%% [%.1f%%, %.1f%%]" (100.0 *. ci.point)
    (100.0 *. ci.lo) (100.0 *. ci.hi)

let pp fmt t =
  Format.fprintf fmt
    "@[<v>IA_wait = %a@,IA_run  = %a@,IA_opt  = %a@,ratio   = %.2f [%.2f, \
     %.2f]@,(%d bootstrap replicates over streams)@]"
    pp_ci_pct t.ia_wait pp_ci_pct t.ia_run pp_ci_pct t.ia_opt
    t.propagation_ratio.point t.propagation_ratio.lo t.propagation_ratio.hi
    t.replicates
