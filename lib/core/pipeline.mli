(** End-to-end orchestration of the five-stage method (figure 4) over a
    router-level dataset: group routers by domain suffix, tag apparent
    geohints, generate and evaluate regexes, learn operator geohints,
    re-select, and classify the per-suffix naming convention. *)

type degradation = {
  stage : string;
      (** which stage failed: "apparent", "regen", "ncsel", "learn",
          "reselect", or "suffix" for failures outside any stage *)
  error : string;  (** [Printexc.to_string] of the captured exception *)
}

type suffix_result = {
  suffix : string;
  n_routers : int;
  n_samples : int;  (** hostnames under this suffix *)
  n_tagged : int;  (** hostnames with an apparent geohint *)
  n_tagged_routers : int;
  nc : Ncsel.t option;  (** best NC after learned-geohint refinement *)
  learned : Learned.t;
  classification : Ncsel.classification option;
  stats : Confidence.suffix_stats option;
      (** confidence signals digested from the final NC ([Some] exactly
          when [nc] is): support counts and RTT-channel agreement,
          carried into snapshots so served answers score identically *)
  degraded : degradation option;
      (** [Some _] when a stage raised: the group learned nothing
          ([nc = None], zero sample counts) but the run carried on —
          one poisoned suffix cannot abort the others. [None] on every
          clean run. Counted under [pipeline.suffix_degraded], and
          deterministic: the same dataset degrades the same suffixes
          with the same stage/error at any [jobs] setting. *)
}

type t = {
  dataset : Hoiho_itdk.Dataset.t;
  consist : Consist.t;
  db : Hoiho_geodb.Db.t;
  results : suffix_result list;
  metrics : Hoiho_obs.Obs.snapshot;
      (** observability snapshot taken when the run finished: per-stage
          durations, rx/ncsel/pool counters (see DESIGN.md §7). The
          registry is process-wide and cumulative; call
          {!Hoiho_obs.Obs.reset} before [run] to scope the snapshot to
          this run alone. *)
}

val run :
  ?db:Hoiho_geodb.Db.t ->
  ?learn_geohints:bool ->
  ?min_samples:int ->
  ?jobs:int ->
  Hoiho_itdk.Dataset.t ->
  t
(** [learn_geohints:false] disables stage 4 (used by the ablation
    experiment). [min_samples] (default 1) skips suffixes with fewer
    tagged hostnames. [jobs] (default {!Hoiho_util.Pool.default_jobs},
    i.e. the [HOIHO_JOBS] env var or cores − 1) fans the independent
    suffix groups — and candidate evaluation within each — out over a
    shared domain pool. Results are deterministic: any [jobs] value
    produces results identical to [jobs:1]. *)

val run_groups :
  Consist.t ->
  Hoiho_geodb.Db.t ->
  ?learn_geohints:bool ->
  ?min_samples:int ->
  ?jobs:int ->
  (string * Hoiho_itdk.Router.t list) list ->
  suffix_result list
(** Run the per-suffix pipeline over an explicit list of suffix groups,
    returning results in input-group order. This is the fan-out core of
    {!run}, exposed so {!Delta.relearn} can drive it over just the
    dirty groups: given the same [consist]/[db]/options, each group's
    result depends only on that group's routers (the per-suffix stages
    never look across groups), so recomputing a subset yields results
    byte-identical to the corresponding slice of a full {!run}.
    Deterministic across [jobs] like {!run}. *)

val run_suffix :
  Consist.t ->
  Hoiho_geodb.Db.t ->
  ?learn_geohints:bool ->
  ?jobs:int ->
  suffix:string ->
  Hoiho_itdk.Router.t list ->
  suffix_result
(** The per-suffix pipeline, exposed for examples and tests. *)

val usable : suffix_result -> bool
(** Classified good or promising. *)

val find : t -> string -> suffix_result option

val geolocate : t -> string -> Hoiho_geodb.City.t option
(** Apply the learned conventions to one hostname: locate its suffix's
    usable NC, run its regexes, and decode the extraction through the
    learned overlay and reference dictionary. The hostname is
    normalized once at entry
    ({!Hoiho_util.Strutil.normalize_hostname}), so mixed-case, a
    trailing root dot, and stray whitespace geolocate the same as the
    canonical lowercase form — and the function never raises, whatever
    bytes the hostname contains. The result is the
    convention's *claim*; no RTT check is applied (regexes are usable
    offline — the paper's motivation for learning regexes at all). *)

val geolocate_conf : t -> string -> Hoiho_geodb.City.t option * float
(** {!geolocate} plus the answer's {!Confidence} score in [0,1]
    (0 exactly when the answer is [None]). Same never-raise contract;
    the score is deterministic across [jobs] settings and byte-identical
    to what {!Hoiho_serve} computes from this run's snapshot. *)

val trace_groups : string option array -> string
(** Decision-trace rendering of a regex match's capture groups
    (comma-separated, [-] for a group that did not participate) — the
    ["groups"] attr of a candidate span. Shared with
    {!Hoiho_serve.Serve} so both apply paths trace identically. *)

val trace_resolve_result :
  Hoiho_geodb.City.t list -> Evalx.provenance -> float -> unit
(** Attach the dictionary-resolution outcome (provenance, resolved
    city, collision losers, confidence) to the current trace span —
    the attrs of a ["*.resolve"] span. Shared like {!trace_groups}. *)

val geolocated_routers : t -> suffix_result -> int
(** Routers of a suffix with at least one TP hostname under the NC. *)
