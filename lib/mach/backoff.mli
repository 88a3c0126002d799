(** Capped exponential backoff with deterministic jitter.

    The one retry schedule shared by {!Ipc.call_retry},
    {!Rpc.call_retry} and the supervisor's restart pacing.  The raw
    schedule is [base * 2^(attempt-1)] saturating at [cap] (default
    [base * 64], i.e. six doublings — no more unbounded doubling that
    sleeps past any plausible recovery); on top of it each waiter gets
    jitter in [0, wait/4) from a drand48 generator keyed on [seed] and
    the attempt number — deterministic for replay, but different seeds
    (thread ids, supervision entries) spread their retries instead of
    stampeding a reincarnating server in lockstep. *)

type policy

val policy : ?cap:int -> ?seed:int -> base:int -> unit -> policy

val delay : policy -> attempt:int -> int
(** The capped exponential for this attempt (1-based) plus its seeded
    jitter. *)
