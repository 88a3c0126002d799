(** The fault-storm experiment: availability under live fault injection.

    Five scenarios measure what the reincarnation service buys when
    components die {e under load} — the availability counterpart to
    {!Fault_sweep}'s completion-rate curve:

    - {b shard-golden}: an open-loop deterministic UDP storm while one
      netserver protocol shard is killed and reincarnated mid-run.
      Injection is scheduled on the event timeline before any packet
      flies, so the untouched shards must deliver {e exactly} the packet
      counts of a no-fault control run, and the victim's shortfall must
      equal the counted in-flight reboot drops.
    - {b shard-storm}: closed-loop acked echo operations from one victim
      client per CPU while the shard homing a victim socket is killed and
      reincarnated twice; acked ops must never be lost (clients re-drive
      dropped traffic through retry budgets), and the kill→repair windows
      give availability-under-fault and shard MTTR.
    - {b fs-crash}: the E1-style edit workload against a
      health-supervised file server under random crash injection plus
      disk write-reordering; MTTR is the supervisor's death-to-rebind.
    - {b fs-wedge}: scripted [Wedge_server] faults stick the serve loop
      mid-request with the port still alive — only the heartbeat
      watchdog can see it; detection, kill and restart must happen while
      clients keep completing.
    - {b crash-loop}: a server whose every incarnation dies at once
      burns its restart budget, is demoted to degraded mode, and clients
      resolving its name must get [Kern_unavailable] back fast (the
      fast-fail latency is the measurement) instead of hanging.

    Availability is a success ratio by {e operation finish time}: ops
    completing inside a fault window (kill→repair for shards,
    restart-closure span for the file server) versus outside. *)

val run :
  ?seed:int -> ?endpoints:int -> ?rounds:int -> ?victim_ops:int ->
  ?clients:int -> ?sessions:int -> unit -> Experiment.result
(** [BENCH_storm.json]: one ["results"] row per scenario — ops attempted
    (or packets injected), completed and lost, the in-window and
    out-of-window populations with their success ratios and rates,
    fault windows and MTTR, supervisor and shard counters, the golden
    assert and the degraded-mode fast-fail latency (-1 when n/a).
    [endpoints]/[rounds] size the open-loop golden storm, [victim_ops]
    the closed-loop echo run, and [clients]/[sessions] the file-server
    scenarios.  Gates: no acked or attempted operation lost; the worst
    success ratio over every scenario's in-window and out-of-window
    populations at least 0.90; every golden assert held (untouched
    shards byte-identical to the control run, victim shortfall exactly
    the counted drops, the fault run dropped something); and the
    crash-loop fast-fail within [0, 100000] cycles (-1 when the server
    never demoted). *)
