type t = { streams : Stream.t list; specs : Scenario.spec list }

let create ~streams ~specs = { streams; specs }

let find_spec t name =
  List.find_opt (fun (s : Scenario.spec) -> s.name = name) t.specs

let all_instances t =
  List.concat_map
    (fun (st : Stream.t) -> List.map (fun i -> (st, i)) st.Stream.instances)
    t.streams

let scenario_names t =
  let names =
    List.map (fun (_, (i : Scenario.instance)) -> i.scenario) (all_instances t)
  in
  List.sort_uniq compare names

let instances_of t name =
  List.concat_map
    (fun (st : Stream.t) ->
      List.filter_map
        (fun (i : Scenario.instance) -> if i.scenario = name then Some (st, i) else None)
        st.Stream.instances)
    t.streams

let instance_count t =
  List.fold_left (fun acc (st : Stream.t) -> acc + List.length st.Stream.instances) 0 t.streams

let stream_count t = List.length t.streams

let event_count t =
  List.fold_left (fun acc st -> acc + Stream.event_count st) 0 t.streams

let total_scenario_time t =
  List.fold_left (fun acc (_, i) -> acc + Scenario.duration i) 0 (all_instances t)

let pp_summary fmt t =
  Format.fprintf fmt
    "corpus: %d streams, %d instances over %d scenarios, %d events, %a scenario time"
    (stream_count t) (instance_count t)
    (List.length (scenario_names t))
    (event_count t) Dputil.Time.pp (total_scenario_time t)
