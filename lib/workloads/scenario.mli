(** Scenarios as data: a record names the machine a run boots, the stack
    it brings up and the fault script it installs, and {!run} does all
    of it, so a storm or a sweep writes only its clients and oracles.
    Machcheck is not part of a scenario: {!Experiment} installs it
    around a whole workload. *)

type boot = Kernel | Services of Mk_services.Bootstrap.naming

type t = {
  ncpus : int;
  boot : boot;  (** the bare kernel, or it plus every Microkernel Service *)
  fs : int option;
      (** HPFS at [/os2] behind a file server with this many serve
          threads (needs [Services]) *)
  net : int option;  (** a coarse-object netserver with this listen backlog *)
  faults : (disk:string -> Mach.Fault.t) option;  (** the seeded fault plan *)
}

val base : t
(** One CPU, a bare kernel, no file stack, no netserver, no faults. *)

type env = {
  m : Machine.t;
  k : Mach.Kernel.t;
  sys : Mach.Sched.t;
  services : Mk_services.Bootstrap.t option;
  server : Fileserver.File_server.t option;
  netserver : Netserver.t option;
  plan : Mach.Fault.t option;
}

val run : t -> (env -> unit -> 'a) -> 'a
(** [run sc setup]: create a Pentium machine with [sc.ncpus] CPUs, boot
    it, bring up what the record asks for, arm disk faults and install
    the plan; [setup env] spawns the threads and returns the finisher.
    Then run the kernel until it quiesces, remove the plan, disarm disk
    faults and return what the finisher computes. *)

val config : int -> Machine.Config.t
(** The Pentium configuration with that many CPUs. *)

val hpfs :
  Mach.Kernel.t -> ?at:string -> Fileserver.Vfs.t -> Fileserver.Block_cache.t
(** Format the kernel's disk as HPFS and mount it in the VFS at [at]
    (default [/os2]) through a new block cache, which is returned. *)

val fail_fs : Fileserver.Fs_types.fs_error -> 'a

val spawn :
  env -> Mach.Ktypes.task -> ?cpu:int -> string -> (unit -> unit) -> unit
(** A thread in the task, bound to [cpu] when one is given. *)

val sleep : env -> int -> unit
(** Sleep the calling thread for that many cycles. *)

val lcg : int -> int
(** One step of the seeded generator behind every random choice. *)

val per_mcycle : int -> int -> float
(** Operations per million cycles (0 when no cycles passed). *)

val speedups : (string * int * float * (float -> 'a)) list -> 'a list
(** [speedups points]: each point gives its series, CPU count and
    throughput, and builds its row from its throughput over that of the
    1-CPU point of its series (1.0 without one). *)

val percentiles : int list -> float -> int
(** Sorts the samples once; then maps [p] to the sample at rank [p * n]
    (0 when there are none). *)

(** {2 Acknowledged echo operations over the netserver} *)

val poll_reply : env -> Netserver.socket -> bool
(** Poll for a reply up to 12 times, 6,000 cycles apart, draining the
    duplicates that earlier retries of the operation left. *)

val echo_server : env -> Mach.Ktypes.task -> unit
(** A UDP echo server on port 7, bound to CPU 0. *)

type tally = { mutable acked : int; mutable lost : int; mutable retries : int }

val echo_clients :
  env -> Mach.Ktypes.task -> ops:int -> budget:int -> (bool -> unit) -> tally
(** One client per CPU completing [ops] echo operations of up to [budget]
    attempts each; the callback sees each outcome (true when acked). *)

(** {2 The supervised file server} *)

val service_path : string

type supervised = {
  sup : Mk_services.Supervisor.t;
  started : int ref;  (** when the clients began *)
  reopens : int ref;  (** sessions restarted from the open *)
  restarts : (int * int) list ref;  (** each restart's start and end *)
}

val supervised_edits :
  env -> clients:int -> sessions:int -> budget:int -> health:bool ->
  (bool -> unit) -> supervised
(** Supervise the file server (at most [budget] restarts; a heartbeat
    watchdog when [health], and then the supervisor stands down after the
    last session), send clients through retries with a cached re-resolve,
    and run [clients] x [sessions] edit sessions (open, write, four reads,
    close, sync; restarted from the open at most three times).  The
    callback sees each session's outcome. *)
