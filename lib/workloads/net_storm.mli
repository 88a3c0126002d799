(** The net-storm experiment: a C1M-flavoured traffic generator against
    the netisr-sharded netserver, swept over CPU counts.

    Five phases, each booting a fresh machine per (phase, ncpus) point:
    [steady] (uniform datagram firehose from tens of thousands of
    simulated clients — the packets/sec scaling anchor), [skew] (the
    same engine under Zipf heavy-hitter endpoint selection, measuring
    per-shard occupancy fairness and p50/p99 delivery latency), [churn]
    (full TCP open/echo/close sessions — connections/sec), and two
    adversarial fault phases at the largest swept CPU count: [synflood]
    (SYN storm against a bounded backlog while UDP victims complete
    acknowledged operations over a lossy {!Mach.Fault} wire) and
    [slowloris] (waves of half-open connections vs the periodic embryo
    reaper, with TCP victims completing through the same listener).

    All randomness is a seeded LCG: results are deterministic. *)

val run :
  ?cpus:int list ->
  ?endpoints:int ->
  ?clients:int ->
  ?packets:int ->
  ?bytes:int ->
  ?sessions:int ->
  ?flood_syns:int ->
  ?victim_ops:int ->
  unit ->
  Experiment.result
(** [BENCH_net.json]: one ["results"] row per (phase, CPU count) point —
    ops (packets delivered, or sessions or acknowledged ops completed),
    throughput per million cycles and speedup against the 1-CPU point
    of the same phase, the busiest shard's p50/p99 wire-to-socket
    latency, per-shard occupancy fairness (max/mean), the drop, reap
    and retry counters, acknowledged ops lost, and cross-shard messages.
    Defaults: cpus [1;2;4;8], 32 endpoints, 20_000 clients, 12_000
    packets per firehose point, 512-byte payloads, 24 sessions per CPU,
    200 flood SYNs, 12 victim ops per CPU.  Gates: steady-phase
    packets/sec at 4 CPUs at least 2.5x of 1 CPU (when the sweep has 4
    CPUs), worst p99/p50 delivery-latency ratio over the skewed
    multi-CPU points at most 3, and no acknowledged operation lost in
    any phase. *)
