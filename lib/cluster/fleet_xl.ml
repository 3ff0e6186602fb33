open Dapper_util
open Dapper_net

type class_cfg = {
  xc_node : Node.t;
  xc_nodes : int;
  xc_slots_per_node : int;
}

type config = {
  x_window_ms : float;
  x_xeon_slots : int;
  x_classes : class_cfg list;
  x_jobs : int;
  x_placement : Placement.t;
  x_shards : int;
  x_racks : int;
  x_page_servers_each : int;
  x_slo_factor : float;
  x_fault : Fault.t option;
  x_loss_every_ms : float;
  x_rack_gate : (rack:int -> now_ms:float -> bool) option;
  x_rack_report : (rack:int -> now_ms:float -> ok:bool -> unit) option;
}

type stats = {
  x_jobs_done : int;
  x_jobs_fast : int;
  x_jobs_slow : int;
  x_jobs_lost_in_flight : int;
  x_nodes_lost : int;
  x_migrations : int;
  x_migration_ms_total : float;
  x_rack_queue_ms : float;
  x_steals : int;
  x_slo_met : int;
  x_slo_missed : int;
  x_energy_kj : float;
  x_jobs_per_kj : float;
  x_throughput_per_min : float;
  x_makespan_ms : float;
  x_nodes_powered : int;
  x_events : int;
  x_events_per_sim_s : float;
}

(* A job in flight on some slot. *)
type inflight = {
  i_kind : Scheduler.job_kind;
  i_dispatched_ms : float;
  i_exec_ms : float;
  i_slow : bool;
}

type slot = {
  s_id : int;                       (* global: fast slots, then classes *)
  s_class : int;                    (* -1 for the fast tier *)
  s_node_id : int;                  (* global node id (rack striping) *)
  s_node : Node.t;
  mutable s_gen : int;              (* bumped when the node dies *)
  mutable s_dead : bool;
  mutable s_busy_ms : float;
  mutable s_inflight : inflight option;
}

type event =
  | Loss_draw
  | Complete of int * int           (* slot id, generation at dispatch *)

let run config kinds =
  if kinds = [] then invalid_arg "Fleet_xl.run: no job kinds";
  if config.x_jobs <= 0 then invalid_arg "Fleet_xl.run: no jobs";
  let kinds = Array.of_list kinds in
  let classes = Array.of_list config.x_classes in
  let xeon = Node.xeon in
  (* Global slot and node numbering: the fast tier first, then each
     class in order. Nodes stripe across racks by id. *)
  let fast_nodes = (config.x_xeon_slots + xeon.Node.n_cores - 1) / xeon.Node.n_cores in
  let fast_slots =
    Array.init config.x_xeon_slots (fun i ->
        { s_id = i; s_class = -1; s_node_id = i / xeon.Node.n_cores;
          s_node = xeon; s_gen = 0; s_dead = false; s_busy_ms = 0.0;
          s_inflight = None })
  in
  let slow_slots =
    let next_slot = ref config.x_xeon_slots and next_node = ref fast_nodes in
    Array.to_list classes
    |> List.mapi (fun ci c ->
           let base_slot = !next_slot and base_node = !next_node in
           next_slot := !next_slot + (c.xc_nodes * c.xc_slots_per_node);
           next_node := !next_node + c.xc_nodes;
           Array.init (c.xc_nodes * c.xc_slots_per_node) (fun i ->
               { s_id = base_slot + i; s_class = ci;
                 s_node_id = base_node + (i / c.xc_slots_per_node);
                 s_node = c.xc_node; s_gen = 0; s_dead = false;
                 s_busy_ms = 0.0; s_inflight = None }))
    |> Array.concat
  in
  let all_slots = Array.append fast_slots slow_slots in
  let slot i = all_slots.(i) in
  (* Free-slot pools: the heap doubles as a lowest-id-first pool with
     time pinned to 0. Dead slots are skipped lazily on peek/pop. *)
  let pool_of slots =
    let p = Event_heap.create ~capacity:(Array.length slots) () in
    Array.iter (fun s -> Event_heap.push p ~key:s.s_id ~time:0.0 s.s_id) slots;
    p
  in
  let fast_pool = pool_of fast_slots in
  let class_pools =
    Array.map
      (fun _ -> Event_heap.create ())
      classes
  in
  Array.iter
    (fun s -> Event_heap.push class_pools.(s.s_class) ~key:s.s_id ~time:0.0 s.s_id)
    slow_slots;
  let rec pool_peek p =
    match Event_heap.peek p with
    | None -> None
    | Some (_, id) when (slot id).s_dead ->
      ignore (Event_heap.pop p);
      pool_peek p
    | Some (_, id) -> Some id
  in
  let pool_pop p =
    match pool_peek p with
    | None -> None
    | Some id ->
      ignore (Event_heap.pop p);
      Some id
  in
  let queue =
    Shard_queue.create ~shards:config.x_shards
      (List.init config.x_jobs (fun i -> kinds.(i mod Array.length kinds)))
  in
  let racks =
    Rack.create ~racks:config.x_racks ~servers_each:config.x_page_servers_each
  in
  let heap : event Event_heap.t = Event_heap.create () in
  let key_loss = 0 in
  let key_complete id = 1 + id in
  let done_total = ref 0 and done_fast = ref 0 and done_slow = ref 0 in
  let lost_in_flight = ref 0 and nodes_lost = ref 0 in
  let migrations = ref 0 and migration_ms = ref 0.0 in
  let slo_met = ref 0 and slo_missed = ref 0 in
  let events = ref 0 in
  let makespan = ref 0.0 in
  let slow_dispatches = ref 0 in
  let exec_ms_on node kind =
    kind.Scheduler.jk_xeon_ms *. (xeon.Node.n_ops_per_ns /. node.Node.n_ops_per_ns)
  in
  (* Admission: a policy may leave a job queued rather than take any
     free slot. Slo-aware refuses destinations that would blow the
     job's deadline (better to wait for a fast or faster slot);
     energy-aware refuses boards whose watts-per-speed is far off the
     fleet's best class. First-fit takes anything. *)
  let best_wps =
    Array.fold_left
      (fun acc c ->
        Float.min acc (c.xc_node.Node.n_core_w /. c.xc_node.Node.n_ops_per_ns))
      infinity classes
  in
  let admits ~deadline d =
    match config.x_placement with
    | Placement.Slo_aware -> d.Placement.dc_est_ms <= deadline
    | Placement.Energy_aware -> Placement.watts_per_speed d <= 1.25 *. best_wps
    | Placement.First_fit -> true
  in
  (* Dispatch as much queued work as capacity and admission allow at
     time [now]: fast slots first (lowest id), then one slow
     destination per queued job, chosen by the placement policy among
     classes with a live free slot. Migration onto the slow tier queues
     behind the destination rack's page servers. A deferred job stays
     queued; dispatch re-runs after every event, when estimates and
     free pools have moved. *)
  let rec dispatch now =
    if now < config.x_window_ms && not (Shard_queue.is_empty queue) then begin
      match pool_pop fast_pool with
      | Some id ->
        let s = slot id in
        let kind = Option.get (Shard_queue.pop queue ~shard:(id mod config.x_shards)) in
        let exec = kind.Scheduler.jk_xeon_ms in
        s.s_inflight <-
          Some { i_kind = kind; i_dispatched_ms = now; i_exec_ms = exec; i_slow = false };
        Event_heap.push heap ~key:(key_complete id) ~time:(now +. exec) (Complete (id, s.s_gen));
        dispatch now
      | None ->
        let free_classes =
          Array.to_list (Array.mapi (fun ci p -> (ci, pool_peek p)) class_pools)
          |> List.filter_map (fun (ci, id) -> Option.map (fun id -> (ci, id)) id)
        in
        if free_classes <> [] then begin
          (* inspect the job before committing: if no admissible
             destination is free, it stays at the head of its shard *)
          let shard = !slow_dispatches mod config.x_shards in
          let kind = Option.get (Shard_queue.peek queue ~shard) in
          let deadline = config.x_slo_factor *. kind.Scheduler.jk_xeon_ms in
          let candidates =
            List.filter_map
              (fun (ci, id) ->
                let c = classes.(ci) in
                let rack =
                  Rack.rack_of_node ~racks:config.x_racks ~node:(slot id).s_node_id
                in
                (* a gated rack sheds its load to the others: its free
                   slots simply stop being candidates until the gate
                   re-admits it *)
                match config.x_rack_gate with
                | Some g when not (g ~rack ~now_ms:now) -> None
                | _ ->
                  Some
                    { Placement.dc_index = ci;
                      dc_lowest_slot = id;
                      dc_ops_per_ns = c.xc_node.Node.n_ops_per_ns;
                      dc_core_w = c.xc_node.Node.n_core_w;
                      dc_est_ms =
                        Rack.wait_ms racks ~rack ~now_ms:now
                        +. kind.Scheduler.jk_migration_ms
                        +. exec_ms_on c.xc_node kind })
              free_classes
            |> List.filter (admits ~deadline)
          in
          match
            Placement.choose_dest config.x_placement ~deadline_ms:deadline
              candidates
          with
          | None -> ()  (* defer: no admissible destination right now *)
          | Some dest ->
            incr slow_dispatches;
            let kind = Option.get (Shard_queue.pop queue ~shard) in
            let id = Option.get (pool_pop class_pools.(dest.Placement.dc_index)) in
            let s = slot id in
            let rack = Rack.rack_of_node ~racks:config.x_racks ~node:s.s_node_id in
            let mig_done =
              Rack.acquire racks ~rack ~now_ms:now
                ~service_ms:kind.Scheduler.jk_migration_ms
            in
            incr migrations;
            migration_ms := !migration_ms +. kind.Scheduler.jk_migration_ms;
            let exec = exec_ms_on s.s_node kind in
            s.s_inflight <-
              Some { i_kind = kind; i_dispatched_ms = now; i_exec_ms = exec; i_slow = true };
            Event_heap.push heap ~key:(key_complete id) ~time:(mig_done +. exec)
              (Complete (id, s.s_gen));
            dispatch now
        end
    end
  in
  let complete now id gen =
    let s = slot id in
    if gen = s.s_gen then begin
      let job = Option.get s.s_inflight in
      s.s_inflight <- None;
      s.s_busy_ms <- s.s_busy_ms +. job.i_exec_ms;
      if now <= config.x_window_ms then begin
        incr done_total;
        if job.i_slow then begin
          incr done_slow;
          (match config.x_rack_report with
           | None -> ()
           | Some r ->
             r
               ~rack:(Rack.rack_of_node ~racks:config.x_racks ~node:s.s_node_id)
               ~now_ms:now ~ok:true);
          let deadline = config.x_slo_factor *. job.i_kind.Scheduler.jk_xeon_ms in
          if now -. job.i_dispatched_ms <= deadline then incr slo_met
          else incr slo_missed
        end
        else incr done_fast;
        makespan := Float.max !makespan now
      end;
      let pool = if s.s_class < 0 then fast_pool else class_pools.(s.s_class) in
      Event_heap.push pool ~key:id ~time:0.0 id
    end
  in
  (* The chaos plane at scale: a periodic draw that, on a crash, kills
     the next living slow node round-robin. Its slots leave the pools
     (lazily) and any in-flight jobs are lost and re-enqueued — their
     stale generation voids the pending completion. *)
  let kill_cursor = ref 0 in
  let kill_next_node now =
    let n = Array.length slow_slots in
    if n > 0 then begin
      let rec find tries =
        if tries >= n then None
        else begin
          let victim = slow_slots.(!kill_cursor mod n).s_node_id in
          kill_cursor := !kill_cursor + 1;
          let slots =
            Array.to_list slow_slots
            |> List.filter (fun s -> s.s_node_id = victim && not s.s_dead)
          in
          if slots = [] then find (tries + 1) else Some slots
        end
      in
      match find 0 with
      | None -> ()
      | Some slots ->
        incr nodes_lost;
        (match (config.x_rack_report, slots) with
         | Some r, s :: _ ->
           r
             ~rack:(Rack.rack_of_node ~racks:config.x_racks ~node:s.s_node_id)
             ~now_ms:now ~ok:false
         | _ -> ());
        List.iter
          (fun s ->
            s.s_dead <- true;
            s.s_gen <- s.s_gen + 1;
            match s.s_inflight with
            | None -> ()
            | Some job ->
              s.s_inflight <- None;
              incr lost_in_flight;
              Shard_queue.push queue ~shard:(s.s_id mod config.x_shards) job.i_kind)
          slots
    end
  in
  let loss_draw now =
    (match config.x_fault with
     | Some f when now < config.x_window_ms ->
       (match Fault.draw f Fault.Dest_node with
        | Some Fault.Crash -> kill_next_node now
        | _ -> ());
       Event_heap.push heap ~key:key_loss ~time:(now +. config.x_loss_every_ms) Loss_draw
     | _ -> ())
  in
  if config.x_fault <> None && config.x_loss_every_ms > 0.0 then
    Event_heap.push heap ~key:key_loss ~time:config.x_loss_every_ms Loss_draw;
  dispatch 0.0;
  let rec drain () =
    match Event_heap.pop heap with
    | None -> ()
    | Some (now, ev) ->
      incr events;
      (match ev with
       | Loss_draw -> loss_draw now
       | Complete (id, gen) -> complete now id gen);
      dispatch now;
      drain ()
  in
  drain ();
  let elapsed_ms = Float.min config.x_window_ms !makespan in
  let elapsed_s = Float.max 1e-9 (elapsed_ms /. 1000.0) in
  let busy_s pred =
    Array.fold_left
      (fun acc s -> if pred s then acc +. (s.s_busy_ms /. 1000.0) else acc)
      0.0 all_slots
  in
  (* A slow board that served no job over the whole run is counted as
     power-gated (off): that is what lets an energy-aware policy
     actually save energy by concentrating work on the efficient
     classes. The always-on fast tier is charged in full. *)
  let powered : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      if s.s_busy_ms > 0.0 then Hashtbl.replace powered (s.s_class, s.s_node_id) ())
    slow_slots;
  let powered_nodes ci =
    Hashtbl.fold (fun (c, _) () acc -> if c = ci then acc + 1 else acc) powered 0
  in
  let slow_energy_j =
    Array.to_list classes
    |> List.mapi (fun ci c ->
           (float_of_int (powered_nodes ci) *. c.xc_node.Node.n_idle_w *. elapsed_s)
           +. (c.xc_node.Node.n_core_w *. busy_s (fun s -> s.s_class = ci)))
    |> List.fold_left ( +. ) 0.0
  in
  let energy_j =
    (float_of_int fast_nodes *. xeon.Node.n_idle_w *. elapsed_s)
    +. (xeon.Node.n_core_w *. busy_s (fun s -> s.s_class < 0))
    +. slow_energy_j
  in
  let energy_kj = energy_j /. 1000.0 in
  { x_jobs_done = !done_total;
    x_jobs_fast = !done_fast;
    x_jobs_slow = !done_slow;
    x_jobs_lost_in_flight = !lost_in_flight;
    x_nodes_lost = !nodes_lost;
    x_migrations = !migrations;
    x_migration_ms_total = !migration_ms;
    x_rack_queue_ms = Rack.queue_delay_ms racks;
    x_steals = Shard_queue.steals queue;
    x_slo_met = !slo_met;
    x_slo_missed = !slo_missed;
    x_energy_kj = energy_kj;
    x_jobs_per_kj = float_of_int !done_total /. energy_kj;
    x_throughput_per_min = float_of_int !done_total /. (elapsed_ms /. 60_000.0);
    x_makespan_ms = !makespan;
    x_nodes_powered = Hashtbl.length powered;
    x_events = !events;
    x_events_per_sim_s = float_of_int !events /. elapsed_s }
