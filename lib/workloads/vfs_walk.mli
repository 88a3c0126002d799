(** The vfs-walk experiment: path resolution through the vnode layer and
    the name cache.

    Builds a deep directory chain and a wide directory of small files on
    an HPFS volume, then measures the walk phases: cold (misses fill the
    cache), hot (the repeated-lookup phase whose hit rate is the
    acceptance number), the deepest path with the cache on versus off
    (their cycles/op ratio is [deep_speedup]), and concurrent lookups
    racing across CPUs. *)

val run :
  ?depth:int -> ?files:int -> ?repeats:int -> ?cpus:int -> unit ->
  Experiment.result
(** [BENCH_vfs.json]: one ["phases"] row per phase, the hot hit rate,
    the deep walk's cycles per op both ways and [deep_speedup], the
    concurrent lookups and the final name-cache counters.  Defaults: a
    12-deep chain, 48 wide files, 6 hot repeats, 4 CPUs.  Gates: hot hit
    rate at least 90%, the cached deep walk at least 2x cheaper than the
    raw one, and every concurrent lookup completed. *)
