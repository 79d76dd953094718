(** Deterministic load generation against a running [tmx serve].

    The query stream is a pure function of [(seed, request index)]:
    request [i] draws its target — Zipf-skewed over a pool of catalog
    programs plus fuzzer-generated ones ([Tmx_fuzz.Gen.mixed]) — and
    its verb (races, outcomes, check, lint) from a PRNG seeded with
    [(seed, i)].  Concurrency only decides which worker sends which
    indices, never what any index contains, so the same seed replays
    the same stream at any concurrency.

    That determinism is what makes the {!oracle} sound: replaying
    indices [0..n-1] {e sequentially} against two {e fresh} servers
    (say [--shards 1] vs [--shards 4]) must produce byte-identical
    response lines — same verdicts, and same ["cached"] evolution,
    since both cold caches see the identical sequence.  Any divergence
    is a sharding bug, reported with the index and both lines. *)

type config = {
  concurrency : int;  (** worker domains, each with its own connection *)
  duration_s : float;  (** measured-run cutoff (monotonic clock) *)
  requests : int;  (** [> 0]: send exactly this many instead of timing *)
  skew : float;  (** Zipf exponent over the target pool; 0 = uniform *)
  seed : int;
  generated : int;  (** fuzzer-generated programs added to the pool *)
  use_catalog : bool;  (** include every catalog litmus in the pool *)
  rate : float;
      (** [> 0]: open-loop mode — requests arrive at this aggregate
          rate (requests/s across all workers) on a deterministic
          schedule of exponential inter-arrival gaps drawn from the
          seeded RNG, and latency counts from the {e scheduled} arrival
          rather than the send, so a saturated server charges its queue
          delay to the requests it delays (closed-loop latencies under
          overload are coordinated-omission artifacts: the generator
          only sends when the server is ready, so the numbers only
          describe requests the server was ready for).  [0] (default) =
          closed loop.  The schedule stream is disjoint from the
          request-content stream, so {!request} and the {!oracle} are
          unaffected. *)
}

val default_config : config
(** concurrency 2, 5 s, skew 1.0, seed 42, catalog + 16 generated,
    closed loop. *)

type target = By_name of string | By_source of string

val pool : config -> target array
(** Catalog names then generated sources; deterministic per seed.
    @raise Invalid_argument when the config yields an empty pool. *)

val zipf_cumulative : skew:float -> int -> float array

val arrivals : config -> n:int -> float array
(** Open-loop arrival offsets (seconds from run start) of requests
    [0..n-1]: the prefix sums of the exponential gap stream.  A pure
    function of [(seed, rate)] — exposed for tests pinning the schedule.
    Meaningless when [rate <= 0]. *)

val request :
  config -> cum:float array -> targets:target array -> int -> Protocol.request
(** Request [i] of the stream — exposed for tests pinning determinism. *)

type report = {
  requests_sent : int;
  ok : int;
  errors : int;  (** transport failures (connect/roundtrip) *)
  sheds : int;  (** structured [overloaded] responses *)
  hits : int;  (** responses carrying ["cached": true] *)
  duration_s : float;
  throughput_rps : float;
  p50_ms : float;  (** latency percentiles over non-shed responses *)
  p95_ms : float;
  p99_ms : float;
  hit_rate : float;  (** hits / answered (non-shed) responses *)
  shed_rate : float;  (** sheds / requests sent *)
}

val run : ?config:config -> Client.addr -> report
(** The measured phase: [concurrency] domains replay their slices of
    the stream until the duration (or request count) runs out. *)

val report_to_json : report -> Tmx_json.t

type mismatch = { index : int; line_a : string; line_b : string }

val oracle :
  ?config:config ->
  requests:int ->
  Client.addr ->
  Client.addr ->
  (mismatch option, string) result
(** Sequentially replay requests [0..requests-1] to both servers and
    compare raw response lines.  [Ok None] = byte-identical; [Ok (Some
    m)] = first divergence; [Error] = transport failure.  Only sound
    against two freshly started servers (cold caches). *)
