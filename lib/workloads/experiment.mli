(** The experiment registry's machinery.

    An experiment is an {!entry}: a name, the BENCH_*.json file it
    writes (if any), and a run function sized per {!profile}.  {!run}
    is the one loop every profile goes through: it prints each
    experiment's table, check report and {!gate}s, writes its file
    through {!Run_meta.envelope}, diffs smoke output exactly against the
    checked-in baselines, and folds every failed gate or differing file
    into one exit status. *)

type profile =
  | Full  (** paper-size runs; writes BENCH_*.json into the working directory *)
  | Smoke
      (** tiny runs; writes BENCH_*.json into the working directory and
          diffs each at threshold 0 against [smoke/<file>] *)
  | Machcheck  (** runs under the checker; writes only BENCH_check.json *)

type bound = At_least of float | At_most of float

type gate = { name : string; value : float; bound : bound; pass : bool }
(** An acceptance check as data, written into every BENCH file under
    ["gates"] as [{ "value", "bound", "pass" }]. *)

val at_least : string -> float -> float -> gate
val at_most : string -> float -> float -> gate

type result = {
  body : (string * Json.t) list;  (** the file's fields after the envelope *)
  seed : int option;  (** recorded in the envelope's ["run"] block *)
  table : (unit -> unit) option;
      (** the human-readable table a full run prints; by default the
          body itself, one table per array of rows *)
  check : Check.report option;  (** written as ["machcheck"] *)
  gates : gate list;
}

val result :
  ?seed:int -> ?gates:gate list -> ?table:(unit -> unit) ->
  (string * Json.t) list -> result
(** A result without a Machcheck report; {!make} adds the report when the
    profile runs under the checker. *)

type entry = {
  name : string;
  file : string option;
  run : profile -> result option;
}
(** [run] is [None] for a profile the experiment is not part of. *)

type sizes = {
  full : unit -> result;
  smoke : (unit -> result) option;
  machcheck : (unit -> result) option;
  checked : profile list;
      (** the profiles besides {!Machcheck} whose run goes under the
          checker *)
}
(** The workload run at each profile's size; [None] leaves the
    experiment out of that profile. *)

val make : ?file:string -> string -> sizes -> entry
(** [make ?file name sizes] runs the workload at the profile's size.
    Under {!Machcheck} and the [checked] profiles the whole run goes
    under a fresh {!Check}: the result carries its report and one more
    gate, ["machcheck_findings" <= 0]. *)

val hr : string -> unit
(** Prints a section header. *)

val document : string -> result -> string
(** The BENCH_*.json text for an experiment's result: envelope, body,
    ["machcheck"] and ["gates"]. *)

val run : profile -> entry list -> int
(** Runs every entry the profile includes, in order; 0 when every gate
    passed and (for {!Smoke}) every file matched its baseline, else 1. *)
