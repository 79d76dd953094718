(** Benchmark-regression guard behind [tmx bench-compare].

    Compares two perfbench records
    ([.perfbench/<workload>-seed<N>-trace<T>.json]) metric by metric.
    Which direction is better, and the bound of each end-to-end metric,
    come from the benchmark manifest ([BENCHMARK.json]); per-layer
    metrics are judged at a threshold.  Records of different workloads,
    seeds or trace settings are refused; a different host is reported as
    a warning and not judged. *)

val default_threshold : float
(** 0.25, the bound of every per-layer metric unless the caller sets
    another. *)

type verdict

val compare_files :
  ?threshold:float -> ?gate_keys:string list -> string -> string -> (verdict, string) result
(** [compare_files old new], with the manifest read from [BENCHMARK.json]
    in the working directory.  A nonempty [gate_keys] gates only the
    metrics whose name contains one of the substrings; the others are
    still shown and judged.  [Error] on unreadable files, a metric the
    manifest does not list, or records that measure different runs. *)

val passed : verdict -> bool
(** No gated regression, no gated metric missing, and NEW lists no
    failure. *)

val pp_verdict : verdict Fmt.t
