type mapping = (string * string) list

type state = {
  modules : (string, string) Hashtbl.t;
  functions : (string * string, string) Hashtbl.t; (* (module, fn) → token *)
  threads : (string, string) Hashtbl.t;
  scenarios : (string, string) Hashtbl.t;
  mutable n_drv : int;
  mutable n_mod : int;
  mutable n_fn : int;
  mutable n_thread : int;
  mutable n_scenario : int;
}

let fresh_state () =
  {
    modules = Hashtbl.create 32;
    functions = Hashtbl.create 128;
    threads = Hashtbl.create 64;
    scenarios = Hashtbl.create 16;
    n_drv = 0;
    n_mod = 0;
    n_fn = 0;
    n_thread = 0;
    n_scenario = 0;
  }

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let anon_module st m =
  if String.lowercase_ascii m = "kernel" then m
  else
    match Hashtbl.find_opt st.modules m with
    | Some t -> t
    | None ->
      let t =
        if ends_with ~suffix:".sys" (String.lowercase_ascii m) then begin
          st.n_drv <- st.n_drv + 1;
          Printf.sprintf "drv%d.sys" st.n_drv
        end
        else begin
          st.n_mod <- st.n_mod + 1;
          Printf.sprintf "mod%d" st.n_mod
        end
      in
      Hashtbl.replace st.modules m t;
      t

let anon_function st m fn =
  if String.lowercase_ascii m = "kernel" then fn
  else
    match Hashtbl.find_opt st.functions (m, fn) with
    | Some t -> t
    | None ->
      st.n_fn <- st.n_fn + 1;
      let t = Printf.sprintf "f%d" st.n_fn in
      Hashtbl.replace st.functions (m, fn) t;
      t

let anon_signature st s =
  let m = Signature.module_part s in
  let fn = Signature.function_part s in
  if fn = "" then
    (* Hardware dummy signatures denote devices, not the traced party. *)
    s
  else Signature.make ~module_name:(anon_module st m) ~function_name:(anon_function st m fn)

let anon_stack st stack =
  Callstack.of_list
    (List.map (anon_signature st) (Array.to_list (Callstack.frames stack)))

let anon_thread st name =
  match Hashtbl.find_opt st.threads name with
  | Some t -> t
  | None ->
    st.n_thread <- st.n_thread + 1;
    let t = Printf.sprintf "thread%d" st.n_thread in
    Hashtbl.replace st.threads name t;
    t

let anon_scenario st ~keep name =
  if keep then name
  else
    match Hashtbl.find_opt st.scenarios name with
    | Some t -> t
    | None ->
      st.n_scenario <- st.n_scenario + 1;
      let t = Printf.sprintf "scenario%d" st.n_scenario in
      Hashtbl.replace st.scenarios name t;
      t

let corpus ?(keep_scenarios = false) (c : Corpus.t) =
  let st = fresh_state () in
  let streams =
    List.map
      (fun (stream : Stream.t) ->
        let events =
          Array.map
            (fun (e : Event.t) -> { e with Event.stack = anon_stack st e.Event.stack })
            stream.Stream.events
        in
        let threads =
          List.map (fun (tid, name) -> (tid, anon_thread st name)) stream.Stream.threads
        in
        let instances =
          List.map
            (fun (i : Scenario.instance) ->
              { i with Scenario.scenario = anon_scenario st ~keep:keep_scenarios i.scenario })
            stream.Stream.instances
        in
        Stream.create ~id:stream.Stream.id ~events ~instances ~threads)
      c.Corpus.streams
  in
  let specs =
    List.map
      (fun (s : Scenario.spec) ->
        Scenario.spec
          ~name:(anon_scenario st ~keep:keep_scenarios s.name)
          ~tfast:s.tfast ~tslow:s.tslow)
      c.Corpus.specs
  in
  let mapping =
    List.concat
      [
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.modules [];
        Hashtbl.fold (fun (m, f) v acc -> (m ^ "!" ^ f, v) :: acc) st.functions [];
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.threads [];
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.scenarios [];
      ]
    |> List.sort compare
  in
  (Corpus.create ~streams ~specs, mapping)
