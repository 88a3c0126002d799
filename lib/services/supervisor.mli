(** The reincarnation service.

    A multi-server system is only as robust as its weakest server loop:
    the paper's lesson is that one crashed server must not take the
    system down.  The supervisor watches each registered server's
    service port through a dead-name notification and, with a {!health}
    config, pings a dedicated health port on a period — so it catches
    both shapes of failure: dead (the port went away) and wedged (the
    server answers pings but its main loop has sat on one request past
    its watchdog).  A wedged server is killed and takes the ordinary
    death path.

    Each death is reincarnated under a windowed restart budget: restarts
    inside one window are paced by capped exponential backoff with
    per-entry jitter, and a server that burns the whole budget (a crash
    loop) is demoted to degraded mode — its path is re-bound to a
    fast-fail responder that answers [Kern_unavailable] immediately, and
    the demotion is surfaced to Machcheck as a "budget-exhausted"
    finding.  When several servers die together they are restarted in
    dependency order ([deps]): drivers before the servers above them,
    servers before personalities.  Clients that re-resolve the name
    (e.g. via [call_retry]'s [resolve]) find the replacement and carry
    on. *)

open Mach.Ktypes

type health = {
  hc_interval : int;  (* cycles between heartbeat pings *)
  hc_deadline : int;  (* RPC deadline on each ping *)
  hc_watchdog : int;  (* max cycles one request may sit in the main loop *)
  hc_port : unit -> port option;  (* the server's *current* health port *)
}
(** Heartbeat config for one supervised server.  The health port is a
    thunk because it changes on every restart. *)

type t

val create : Mach.Kernel.t -> Runtime.t -> Name_service.t -> t
(** Start the supervisor: its own task plus a thread that sleeps until a
    watched port dies (or, when heartbeats are configured, until the
    next scan tick). *)

val supervise :
  t -> path:string -> ?budget:int -> ?window:int -> ?backoff:int ->
  ?deps:string list -> ?health:health -> port:port ->
  restart:(unit -> port) -> unit -> unit
(** Watch a running server: bind [path] to [port] in the name service
    and restart via [restart] (which must return the replacement's
    service port) each time the current port dies.  At most [budget]
    restarts (default 8) may land inside any [window] cycles (default
    50M); rapid restarts are paced by [backoff]-based exponential delay
    (default 25k cycles, capped, jittered per entry).  Exhausting the
    budget demotes the entry to degraded mode.  [deps] lists paths that
    restart first when pending together.  Must be called from thread
    context (it performs name-service RPCs). *)

val stop : t -> unit
(** Shut the supervisor loop down (pending restarts are abandoned). *)

val restarts : t -> int
(** Total restarts performed across all supervised servers. *)

val wedge_kills : t -> int
(** Total wedged servers killed by the watchdog across all entries. *)

val degraded_count : t -> int
(** Servers demoted to degraded mode (restart budget exhausted). *)

val gave_up : t -> bool
(** Whether any supervised server was demoted to degraded mode. *)

val is_degraded : t -> path:string -> bool

val path_restarts : t -> path:string -> int
val path_wedge_kills : t -> path:string -> int

val mttr : t -> path:string -> int option
(** Mean time to repair in cycles — death notification to rebind —
    averaged over this entry's completed reincarnations, if any. *)

val current_port : t -> path:string -> port option
(** The currently live service port for a supervised path ([None] while
    dead or once degraded — the degraded responder is reachable only
    through the name service, as clients would find it). *)
