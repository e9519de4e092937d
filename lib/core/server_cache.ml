module Cache = Agg_cache.Cache
module Int_table = Agg_util.Int_table
module Tracker = Agg_successor.Tracker
module Sink = Agg_obs.Sink
module Event = Agg_obs.Event

type scheme = Plain of Agg_cache.Cache.kind | Aggregating of Config.t

type t = {
  scheme : scheme;
  cooperative : bool;
  obs : Sink.t;
  client : Cache.t;
  server : Cache.t;
  tracker : Tracker.t option; (* present only for the aggregating scheme *)
  group : int array; (* the retrieval-group buffer (aggregating scheme) *)
  speculative : Int_table.t;
  inserted_at : Int_table.t; (* instrumentation only: request count at insertion *)
  mutable last_observed : int; (* instrumentation only: predecessor file, -1 at start *)
  mutable client_accesses : int;
  mutable server_requests : int;
  mutable server_hits : int;
  mutable store_fetches : int;
  mutable prefetch_issued : int;
  mutable prefetch_used : int;
  mutable prefetch_evicted_unused : int;
}

let on_evict t victim =
  let speculative = Int_table.mem t.speculative victim in
  let age_accesses =
    match Int_table.get t.inserted_at victim with
    | at when at >= 0 -> t.server_requests - at
    | _ -> 0
  in
  Int_table.remove t.inserted_at victim;
  Sink.emit t.obs (Event.Evicted { file = victim; speculative; age_accesses })

let create ?(cooperative = false) ?(obs = Sink.noop) ~filter_kind ~filter_capacity
    ~server_capacity ~scheme () =
  let server_kind, tracker =
    match scheme with
    | Plain kind -> (kind, None)
    | Aggregating config ->
        Config.validate config;
        ( config.cache_kind,
          Some (Tracker.create ~capacity:config.successor_capacity ~policy:config.metadata_policy ())
        )
  in
  let t =
    {
      scheme;
      cooperative;
      obs;
      client = Cache.create filter_kind ~capacity:filter_capacity;
      server = Cache.create server_kind ~capacity:server_capacity;
      tracker;
      group = (match scheme with Aggregating c -> Array.make c.Config.group_size 0 | Plain _ -> [||]);
      speculative = Int_table.create ~capacity:64 ();
      inserted_at = Int_table.create ~capacity:64 ();
      last_observed = -1;
      client_accesses = 0;
      server_requests = 0;
      server_hits = 0;
      store_fetches = 0;
      prefetch_issued = 0;
      prefetch_used = 0;
      prefetch_evicted_unused = 0;
    }
  in
  if Sink.enabled obs then Cache.set_on_evict t.server (on_evict t);
  t

type outcome = Client_hit | Server_hit | Server_miss

(* Shared by both metadata paths: report the adjacency the tracker just
   learned. Only called when the sink is enabled. *)
let note_observation t file =
  if t.last_observed >= 0 then
    Sink.emit t.obs (Event.Successor_update { prev = t.last_observed; next = file });
  t.last_observed <- file

let mark_speculative t file =
  t.store_fetches <- t.store_fetches + 1;
  t.prefetch_issued <- t.prefetch_issued + 1;
  Int_table.set t.speculative file 1;
  if Sink.enabled t.obs then begin
    Int_table.set t.inserted_at file t.server_requests;
    Sink.emit t.obs (Event.Prefetch_issued { file })
  end

(* The group's members are [t.group.(1) .. t.group.(n - 1)]. *)
let insert_members t config n =
  match config.Config.member_position with
  | Config.Tail ->
      let admitted = Cache.insert_cold_slice t.server t.group ~pos:1 ~len:(n - 1) in
      for i = 1 to admitted do
        mark_speculative t t.group.(i)
      done
  | Config.Head ->
      for i = 1 to n - 1 do
        let file = t.group.(i) in
        if not (Cache.mem t.server file) then begin
          Cache.insert_hot t.server file;
          mark_speculative t file
        end
      done

let serve t file =
  t.server_requests <- t.server_requests + 1;
  (* Non-cooperative servers learn from what they can see: the misses. *)
  (match (t.tracker, t.cooperative) with
  | Some tracker, false ->
      Tracker.observe tracker file;
      if Sink.enabled t.obs then note_observation t file
  | Some _, true | None, _ -> ());
  if Sink.enabled t.obs then begin
    match Cache.depth t.server file with
    | Some depth -> Sink.emit t.obs (Event.Demand_hit { file; depth })
    | None -> Sink.emit t.obs (Event.Demand_miss { file })
  end;
  if Cache.access t.server file then begin
    t.server_hits <- t.server_hits + 1;
    if Int_table.mem t.speculative file then begin
      t.prefetch_used <- t.prefetch_used + 1;
      Int_table.remove t.speculative file;
      if Sink.enabled t.obs then begin
        let lifetime =
          match Int_table.get t.inserted_at file with
          | at when at >= 0 -> t.server_requests - at
          | _ -> 0
        in
        Sink.emit t.obs (Event.Prefetch_promoted { file; lifetime })
      end
    end;
    Server_hit
  end
  else begin
    if Int_table.mem t.speculative file then begin
      t.prefetch_evicted_unused <- t.prefetch_evicted_unused + 1;
      Int_table.remove t.speculative file
    end;
    t.store_fetches <- t.store_fetches + 1;
    if Sink.enabled t.obs then Int_table.set t.inserted_at file t.server_requests;
    (match (t.scheme, t.tracker) with
    | Aggregating config, Some tracker ->
        insert_members t config
          (Group_builder.fill ~obs:t.obs tracker ~group_size:config.group_size file t.group)
    | Plain _, _ -> ()
    | Aggregating _, None -> assert false);
    Server_miss
  end

let access t file =
  t.client_accesses <- t.client_accesses + 1;
  (* Cooperative clients piggy-back every access to the server's metadata,
     even the ones their own cache absorbs. *)
  (match (t.tracker, t.cooperative) with
  | Some tracker, true ->
      Tracker.observe tracker file;
      if Sink.enabled t.obs then note_observation t file
  | Some _, false | None, _ -> ());
  if Cache.access t.client file then Client_hit else serve t file

let metrics t =
  {
    Metrics.client_accesses = t.client_accesses;
    server_requests = t.server_requests;
    server_hits = t.server_hits;
    store_fetches = t.store_fetches;
    prefetch =
      {
        Metrics.issued = t.prefetch_issued;
        used = t.prefetch_used;
        evicted_unused = t.prefetch_evicted_unused;
      };
  }

let run t trace =
  Agg_trace.Trace.iter (fun (e : Agg_trace.Event.t) -> ignore (access t e.file)) trace;
  metrics t

let run_files t files =
  Array.iter (fun file -> ignore (access t file)) files;
  metrics t
