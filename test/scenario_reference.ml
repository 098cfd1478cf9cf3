(* The composed scenario path, kept as the test oracle for
   Dpcore.Pipeline's one scenario tail.

   Classify the scenario's instances, build each contrast class's graphs
   on their own, measure the slow class with the two-walk reference
   impact, aggregate each class with one Awg.build over all of its
   graphs, mine, then compute the coverages. It makes no per-stream class
   part and merges no Awg.Partial forest, so comparing it with
   Pipeline.run_scenario or a report's scenario entry checks the
   pipeline's per-stream merge against a single-pass build. *)

module Pipeline = Dpcore.Pipeline
module Classify = Dpcore.Classify
module Awg = Dpcore.Awg
module Mining = Dpcore.Mining

let run ?(k = Mining.default_k) ?(reduce = true) components corpus name :
    Pipeline.scenario_result =
  let classification = Classify.classify corpus name in
  let fast = Pipeline.build_graphs corpus classification.Classify.fast in
  let slow = Pipeline.build_graphs corpus classification.Classify.slow in
  let slow_impact, slow_impact_prov =
    Impact_reference.analyze_graphs_prov components slow
  in
  let fast_awg = Awg.build ~reduce components fast in
  let slow_awg = Awg.build ~reduce components slow in
  let mining =
    Mining.mine ~k ~fast:fast_awg ~slow:slow_awg
      ~spec:classification.Classify.spec ()
  in
  let driver_cost =
    Awg.total_leaf_cost slow_awg + (Awg.reduction slow_awg).Awg.pruned_cost
  in
  let coverages =
    Dpcore.Evaluation.time_coverages mining.Mining.patterns
      ~tslow:classification.Classify.spec.Dptrace.Scenario.tslow ~driver_cost
  in
  {
    Pipeline.classification;
    slow_impact;
    slow_impact_prov;
    fast_awg;
    slow_awg;
    mining;
    coverages;
  }
