module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Make (K : KEY) = struct
  module H = Hashtbl.Make (K)

  type t = {
    lock : Mutex.t;
    table : K.t H.t;
    mutable next : int;
  }

  let create ?(capacity = 256) () =
    {
      lock = Mutex.create ();
      table = H.create capacity;
      next = 0;
    }

  let intern t probe ~build =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
    match H.find_opt t.table probe with
    | Some v -> v
    | None ->
      let id = t.next in
      let v = build id in
      (* Key by the canonical value, not the probe: the probe may alias
         scratch buffers the caller will overwrite. *)
      H.replace t.table v v;
      t.next <- id + 1;
      v

  let size t =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () -> t.next
end
