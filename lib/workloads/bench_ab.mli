(** A/B regression diff over two BENCH_*.json files.

    Compares the number and string leaves of two runs of the same
    experiment and judges each numeric change by the metric's
    direction: throughput-like metrics regress when they fall, cost-like
    metrics (cycles, misses, stalls) regress when they rise; a string
    has no direction.  Provenance (the ["run"] subtree) and host-clock
    fields are excluded, so only deterministic simulated output can
    gate a build.

    Threshold 0 is exact: every changed leaf is a regression whatever
    its direction or type, and so is every leaf present in only one
    file. *)

type delta = {
  d_path : string;  (** dotted leaf path, arrays keyed by identity fields *)
  d_a : Json.t;  (** a number (a flag as 1 or 0) or a string *)
  d_b : Json.t;
  d_change : float;
      (** (b - a) / a; infinite when a = 0 and b <> 0; nan unless both
          leaves are numbers *)
  d_direction : [ `Higher_better | `Lower_better | `Neutral ];
  d_regression : bool;
      (** moved the wrong way by more than threshold (any move at 0) *)
}

type verdict = {
  v_experiment : string;
  v_threshold : float;
  v_compared : int;  (** leaves present in both files *)
  v_only_a : string list;  (** leaves present in A but missing from B *)
  v_only_b : string list;
  v_deltas : delta list;  (** changed leaves only, regressions first *)
  v_regressions : int;  (** at threshold 0 this counts one-sided leaves too *)
}

val compare_json : a:string -> b:string -> threshold:float -> (verdict, string) result
(** [Error _] on malformed JSON or when the two documents disagree on
    ["experiment"] or ["schema_version"]. *)

val compare_files : a:string -> b:string -> threshold:float -> (verdict, string) result

val pp_verdict : Format.formatter -> verdict -> unit
