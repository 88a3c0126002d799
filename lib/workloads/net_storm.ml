(* The net-storm experiment: a C1M-flavoured traffic generator against
   the netisr-sharded netserver, swept over 1/2/4/8 CPUs.

   Five phases, each booting a fresh machine per (phase, ncpus) point:

   - [steady]: an external traffic generator on the event timeline
     impersonates tens of thousands of clients (distinct source ports)
     and blasts datagrams uniformly over the bound endpoints in
     closed-loop bursty rounds — the packets/sec scaling anchor
     (acceptance: >= 2.5x at 4 CPUs).
   - [skew]: the same engine with Zipf(~1.0) heavy-hitter endpoint
     selection — a handful of ports absorb most of the traffic, and the
     per-shard occupancy fairness (max/mean) plus the p50/p99 delivery
     latency show what steering does under skew.
   - [churn]: full TCP open/echo/close sessions through the cross-shard
     accept protocol — the connections/sec number.
   - [synflood]: a SYN storm at a small-backlog listener (backpressure,
     not state explosion) while UDP victims complete acknowledged
     request/reply operations over a lossy wire (Mach.Fault drop rates)
     with bounded retries — acceptance: zero lost acknowledged ops.
   - [slowloris]: waves of half-open connections pinning listener
     children while a periodic reaper closes stale embryos and TCP
     victims keep completing echo sessions through the same listener.

   All randomness is a seeded LCG: every number is deterministic. *)

(* --- deterministic randomness -------------------------------------------- *)

let lcg_float s = float_of_int s /. float_of_int 0x40000000

(* Zipf(alpha) over [0, n): cumulative distribution, linear probe. *)
let zipf_cdf ~n ~alpha =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** alpha)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun wi ->
      acc := !acc +. (wi /. total);
      !acc)
    w

let zipf_pick cdf u =
  let n = Array.length cdf in
  let rec go i = if i >= n - 1 || cdf.(i) >= u then i else go (i + 1) in
  go 0

(* --- latency collection and shared plumbing ------------------------------ *)

(* One sample list per shard.  Percentiles are reported for the busiest
   shard: the tail gate asks "does the heavy-hitter shard's own service
   degrade nonlinearly under load?"  Cross-shard load imbalance is a
   separate number (occupancy fairness), not smeared into the latency
   distribution.  The probe is installed before the setup spawns. *)
let probe net =
  let lats = Array.make (Netserver.shard_count net) [] in
  Netserver.set_delivery_probe net (fun s x -> lats.(s) <- x :: lats.(s));
  lats

let fairness net =
  let d = Netserver.shard_delivered net in
  let sum = Array.fold_left ( + ) 0 d in
  if sum = 0 || Array.length d = 0 then 1.0
  else
    let mean = float_of_int sum /. float_of_int (Array.length d) in
    float_of_int (Array.fold_left max 0 d) /. mean

(* A point's phase, CPU count and throughput, and what it makes of its
   speedup: the steady-phase gate at 4 CPUs, its p99/p50 ratio when it
   is a skewed multi-CPU point (else 0), its lost acknowledged ops, and
   its row. *)
let finish ~phase ~clients ~ops ~conns ~lats ?(retries = 0) ?(lost = 0)
    ?(half_open_peak = 0) (e : Scenario.env) =
  let net = Option.get e.netserver and wall = Machine.global_now e.m in
  Netserver.clear_delivery_probe net;
  let ncpus = Machine.ncpus e.m and throughput = Scenario.per_mcycle ops wall in
  let busiest =
    Array.fold_left
      (fun b l -> if List.length l > List.length b then l else b)
      lats.(0) lats
  in
  let pct = Scenario.percentiles busiest in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  let rest =
    [ ("conns", Json.int conns); ("p50_cycles", Json.int p50);
      ("p99_cycles", Json.int p99);
      ("fairness", Json.fixed 3 (fairness net));
      ("syn_drops", Json.int (Netserver.syn_drops net));
      ("wire_drops", Json.int (Netserver.wire_drops net));
      ("reaped", Json.int (Netserver.reaped_half_open net));
      ("half_open_peak", Json.int half_open_peak);
      ("retries", Json.int retries); ("lost_acked", Json.int lost);
      ( "xshard_msgs",
        Json.int
          (Netserver.registry_messages net + Netserver.cross_shard_accepts net)
      ) ]
  in
  ( phase,
    ncpus,
    throughput,
    fun speedup ->
      ( (if phase = "steady" && ncpus = 4 then
           [ Experiment.at_least "steady_speedup_4cpu" speedup 2.5 ]
         else []),
        (if phase = "skew" && ncpus > 1 && p50 > 0 then
           float_of_int p99 /. float_of_int p50
         else 0.0),
        lost,
        [ ("phase", Json.Str phase); ("ncpus", Json.int ncpus);
          ("clients", Json.int clients); ("ops", Json.int ops);
          ("wall_cycles", Json.int wall);
          ("throughput_ops_per_mcycle", Json.fixed 3 throughput);
          ("speedup", Json.fixed 3 speedup) ]
        @ rest ) )

(* --- steady / skew: the datagram firehose -------------------------------- *)

(* The traffic generator is an external client population, so it lives
   on the machine's event timeline, not on a server CPU: every cycle of
   every CPU belongs to the stack under test, the way a C1M box faces a
   dedicated load generator across a real wire.

   Injection is windowed and closed-loop: each round offers one burst
   per lane (a lane is one generator queue's worth of clients), then
   the generator polls until the stack has drained the round completely
   before offering the next — the pacing a benchmark harness applies so
   offered load tracks the server's capacity instead of growing queues
   without bound.  One round's packets share a wire-arrival instant, so
   a shard's rx ring fills to that round's share and drains to empty:
   under Zipf skew the heavy hitter's ring is deeper every round
   (latency grows linearly with its share, fairness drops), but depth —
   and therefore the p99/p50 tail — stays bounded by a single round. *)
let burst_window = 48
let poll_gap = 4_000  (* cycles between the generator's drain polls *)

let measure_firehose ~phase ~ncpus ~endpoints ~clients ~packets ~bytes ~zipf =
  Scenario.run { Scenario.base with ncpus; net = Some 64 } @@ fun e ->
  let m = e.m and net = Option.get e.netserver in
  let lats = probe net in
  let task = Mach.Kernel.task_create e.k ~name:"storm" () in
  let cdf = zipf_cdf ~n:endpoints ~alpha:1.0 in
  let per_lane = packets / ncpus in
  let seeds = Array.init ncpus (fun lane -> Scenario.lcg ((lane * 7919) + 17)) in
  let sent = Array.make ncpus 0 in
  let injected = ref 0 in
  let schedule at f = Machine.Event_queue.schedule m.Machine.events ~at f in
  let rec generator () =
    if Netserver.packets_processed net < !injected then
      (* the previous round is still draining: poll again *)
      schedule (Machine.now m + poll_gap) generator
    else if !injected < per_lane * ncpus then begin
      for lane = 0 to ncpus - 1 do
        let n = min burst_window (per_lane - sent.(lane)) in
        for _ = 1 to n do
          seeds.(lane) <- Scenario.lcg seeds.(lane);
          let dst =
            if zipf then zipf_pick cdf (lcg_float seeds.(lane))
            else seeds.(lane) mod endpoints
          in
          sent.(lane) <- sent.(lane) + 1;
          let src = 10_000 + (((lane * per_lane) + sent.(lane)) mod clients) in
          Netserver.inject_udp net ~src_port:src ~dst_port:(100 + dst) ~bytes;
          incr injected
        done
      done;
      schedule (Machine.now m + poll_gap) generator
    end
    (* else: offered load exhausted and drained — the generator retires *)
  in
  Scenario.spawn e task ~cpu:0 "bind" (fun () ->
      for i = 0 to endpoints - 1 do
        match Netserver.udp_socket net ~port:(100 + i) with
        | Error e -> failwith e
        | Ok _ -> ()
      done;
      schedule (Machine.now m + poll_gap) generator);
  fun () ->
    let delivered = Array.fold_left ( + ) 0 (Netserver.shard_delivered net) in
    finish ~phase ~clients ~ops:delivered ~conns:0 ~lats e

(* --- churn: TCP open/echo/close sessions --------------------------------- *)

(* A web server on port 80: an acceptor on CPU 0 hands each of [conns]
   connections to its own unbound handler thread (the stealer spreads
   them; the data itself steers by connection hash), which echoes one
   request and closes. *)
let web_server (e : Scenario.env) ~conns =
  let net = Option.get e.netserver in
  let server = Mach.Kernel.task_create e.k ~name:"web" () in
  Scenario.spawn e server ~cpu:0 "acceptor" (fun () ->
      match Netserver.tcp_listen net ~port:80 with
      | Error err -> failwith err
      | Ok l ->
          for h = 1 to conns do
            let c = Netserver.tcp_accept net l in
            Scenario.spawn e server (Printf.sprintf "h%d" h) (fun () ->
                let n = Netserver.tcp_recv net c in
                Netserver.tcp_send net c ~bytes:n;
                Netserver.close net c)
          done)

let measure_churn ~ncpus ~sessions =
  Scenario.run { Scenario.base with ncpus; net = Some 64 } @@ fun e ->
  let net = Option.get e.netserver in
  let lats = probe net in
  let total = sessions * ncpus in
  web_server e ~conns:total;
  let clients = Mach.Kernel.task_create e.k ~name:"surfers" () in
  let completed = ref 0 in
  for cpu = 0 to ncpus - 1 do
    Scenario.spawn e clients ~cpu (Printf.sprintf "client%d" cpu) (fun () ->
        for s = 1 to sessions do
          match Netserver.tcp_connect net ~dst_port:80 with
          | Error e -> failwith e
          | Ok c ->
              Netserver.tcp_send net c ~bytes:(128 + (64 * (s mod 7)));
              ignore (Netserver.tcp_recv net c : int);
              Netserver.close net c;
              incr completed
        done)
  done;
  fun () ->
    if !completed <> total then
      failwith
        (Printf.sprintf "Net_storm: churn completed %d/%d sessions" !completed
           total);
    finish ~phase:"churn" ~clients:ncpus ~ops:!completed ~conns:total ~lats e

(* --- synflood: backpressure + acked UDP ops over a lossy wire ------------ *)

(* A victim operation is acknowledged only when the echo reply arrives;
   requests and replies both cross the faulty wire, so completion takes
   bounded retries.  [lost] counts ops that exhausted their budget —
   the acceptance gate requires zero. *)
let measure_synflood ~ncpus ~flood_syns ~victim_ops =
  let faults ~disk:_ =
    let plan = Mach.Fault.create ~seed:42 () in
    (* one send in eight vanishes on the wire *)
    Mach.Fault.set_rates plan ~drop_ppm:125_000 ();
    plan
  in
  Scenario.run { Scenario.base with ncpus; net = Some 16; faults = Some faults }
  @@ fun e ->
  let net = Option.get e.netserver in
  let lats = probe net in
  let task = Mach.Kernel.task_create e.k ~name:"siege" () in
  Scenario.echo_server e task;
  Scenario.spawn e task ~cpu:0 "target" (fun () ->
      (* the attacked listener: nobody accepts, the backlog bounds it *)
      match Netserver.tcp_listen net ~port:443 with
      | Error e -> failwith e
      | Ok _ -> ());
  Scenario.spawn e task ~cpu:(min 1 (ncpus - 1)) "attacker" (fun () ->
      Scenario.sleep e 2_000;
      for i = 1 to flood_syns do
        Netserver.inject_syn net ~src_port:(40_000 + i) ~dst_port:443
          ~conn:(1_000_000 + i);
        if i mod 32 = 0 then Scenario.sleep e 10_000
      done);
  let t = Scenario.echo_clients e task ~ops:victim_ops ~budget:25 ignore in
  fun () ->
    if t.acked + t.lost <> victim_ops * ncpus then
      failwith "Net_storm: synflood op accounting is broken";
    finish ~phase:"synflood" ~clients:ncpus ~ops:t.acked ~conns:0 ~lats
      ~retries:t.retries ~lost:t.lost ~half_open_peak:(Netserver.half_open net)
      e

(* --- slowloris: half-open waves vs the reaper ----------------------------- *)

let measure_slowloris ~ncpus ~flood_syns ~victim_ops =
  Scenario.run { Scenario.base with ncpus; net = Some 256 } @@ fun e ->
  let net = Option.get e.netserver in
  let lats = probe net in
  (* victims send immediately; a slowloris child never produces data and
     wedges its handler — the reaper, not the handler, is the defence *)
  web_server e ~conns:max_int;
  let task = Mach.Kernel.task_create e.k ~name:"loris" () in
  let retries = ref 0 and lost = ref 0 and acked = ref 0 in
  let peak = ref 0 in
  let waves = 5 in
  Scenario.spawn e task ~cpu:(min 1 (ncpus - 1)) "slowloris" (fun () ->
      Scenario.sleep e 2_000;
      let per_wave = max 1 (flood_syns / waves) in
      for w = 0 to waves - 1 do
        for i = 1 to per_wave do
          Netserver.inject_syn net
            ~src_port:(50_000 + (w * per_wave) + i)
            ~dst_port:80
            ~conn:(2_000_000 + (w * per_wave) + i)
        done;
        Scenario.sleep e 150_000
      done);
  Scenario.spawn e task ~cpu:0 "reaper" (fun () ->
      (* periodic stale-embryo reaping, bounded so the run terminates *)
      for _ = 1 to (waves * 2) + 2 do
        Scenario.sleep e 100_000;
        peak := max !peak (Netserver.half_open net);
        ignore (Netserver.reap_half_open net ~older_than:120_000 : int)
      done);
  for cpu = 0 to ncpus - 1 do
    Scenario.spawn e task ~cpu (Printf.sprintf "victim%d" cpu) (fun () ->
        Scenario.sleep e 4_000;
        for s = 1 to victim_ops do
          let rec attempt budget =
            if budget = 0 then incr lost
            else
              match Netserver.tcp_connect_start net ~dst_port:80 with
              | Error e -> failwith e
              | Ok c ->
                  let rec poll n =
                    Netserver.established c
                    || n > 0
                       && begin
                            Scenario.sleep e 6_000;
                            poll (n - 1)
                          end
                  in
                  let ok =
                    poll 10
                    && begin
                         Netserver.tcp_send net c ~bytes:(96 + (s mod 5));
                         Scenario.poll_reply e c
                       end
                  in
                  Netserver.close net c;
                  if ok then incr acked
                  else begin
                    incr retries;
                    attempt (budget - 1)
                  end
          in
          attempt 25
        done)
  done;
  fun () ->
    (* final sweep: nothing half-open survives the phase *)
    ignore (Netserver.reap_half_open net ~older_than:0 : int);
    if Netserver.half_open net <> 0 then
      failwith "Net_storm: slowloris left half-open connections unreaped";
    finish ~phase:"slowloris" ~clients:ncpus ~ops:!acked ~conns:!acked ~lats
      ~retries:!retries ~lost:!lost ~half_open_peak:!peak e

(* --- sweep ---------------------------------------------------------------- *)

let default_cpus = [ 1; 2; 4; 8 ]

let run ?(cpus = default_cpus) ?(endpoints = 32) ?(clients = 20_000)
    ?(packets = 12_000) ?(bytes = 512) ?(sessions = 24) ?(flood_syns = 200)
    ?(victim_ops = 12) () =
  if cpus = [] then invalid_arg "Net_storm.run: empty CPU list";
  List.iter
    (fun n -> if n < 1 then invalid_arg "Net_storm.run: ncpus must be >= 1")
    cpus;
  let flood_ncpus = List.fold_left max 1 cpus in
  let points =
    Scenario.speedups
      (List.concat_map
         (fun ncpus ->
           [
             measure_firehose ~phase:"steady" ~ncpus ~endpoints ~clients
               ~packets ~bytes ~zipf:false;
             measure_firehose ~phase:"skew" ~ncpus ~endpoints ~clients
               ~packets ~bytes ~zipf:true;
             measure_churn ~ncpus ~sessions;
           ])
         cpus
      @ [
          measure_synflood ~ncpus:flood_ncpus ~flood_syns ~victim_ops;
          measure_slowloris ~ncpus:flood_ncpus ~flood_syns ~victim_ops;
        ])
  in
  (* the worst p99/p50 ratio over the skewed multi-CPU points, and the
     acknowledged ops lost in any phase *)
  let tail = List.fold_left (fun acc (_, t, _, _) -> max acc t) 0.0 points in
  let lost = List.fold_left (fun acc (_, _, l, _) -> acc + l) 0 points in
  Experiment.result
    ~gates:
      (List.concat_map (fun (g, _, _, _) -> g) points
      @ [ Experiment.at_most "skew_p99_over_p50" tail 3.0;
          Experiment.at_most "lost_acked" (float_of_int lost) 0.0 ])
    [
      ("cpus", Json.Arr (List.map Json.int cpus));
      ( "params",
        Json.Obj
          [ ("endpoints", Json.int endpoints); ("clients", Json.int clients);
            ("packets", Json.int packets); ("bytes", Json.int bytes);
            ("sessions", Json.int sessions);
            ("flood_syns", Json.int flood_syns) ] );
      ("results", Json.rows (fun (_, _, _, row) -> row) points);
    ]
