(** Shared provenance for the BENCH_*.json writers: git revision, seed
    and ISO-8601 timestamp, so the bench trajectory is comparable across
    commits.  All values are memoized per process — every writer in one
    run emits the same stamp, and re-running a workload with the checker
    toggled stays byte-identical. *)

val envelope : experiment:string -> ?seed:int -> (string * Json.t) list -> string
(** The text of a whole BENCH_*.json document: ["experiment"],
    ["schema_version"] and ["run"] (the provenance envelope every file
    carries, and {!Bench_ab} requires), then [fields].  The ["run"]
    block is [{ "git_rev", "seed", "timestamp" }]; [seed] defaults to 0
    for unseeded workloads.  This is the one writer of the envelope. *)
