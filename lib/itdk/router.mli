(** A router inferred by alias resolution, with the observations the
    geolocation method consumes: interface hostnames and minimum RTTs
    from vantage points (ping-based, and the sparser traceroute-observed
    RTTs that DRoP-style methods were limited to).

    [truth] carries the generator's ground truth for synthetic datasets.
    The learning pipeline never reads it; only validation and the
    experiment harness do — mirroring the paper's use of operator
    feedback that is unavailable at training time (§4 challenge 2). *)

type truth = {
  city_key : string;  (** where the router actually is *)
  coord : Hoiho_geo.Coord.t;
  intended_hint : string option;
      (** the geohint string the operator meant to embed, if any *)
  stale : bool;  (** hostname kept from a previous deployment (§4.3) *)
  hostname_hints : (string * string option) list;
      (** per hostname: the geohint code it embeds, [None] when the
          hostname carries no geohint *)
}

type t = {
  id : int;
  hostnames : string list;  (** may be empty (no PTR record) *)
  asn : int option;
      (** the AS that operates the router, from BGP-derived IP2AS data —
          an observable input (like RTTs), used to train ASN-extraction
          conventions (§3.4) *)
  ping_rtts : Rtts.t;
      (** (vp id, min RTT ms) from followup ping measurements *)
  trace_rtts : Rtts.t;
      (** (vp id, min RTT ms) observed in traceroute only *)
  truth : truth option;
}

val make :
  ?hostnames:string list ->
  ?asn:int ->
  ?ping_rtts:Rtts.t ->
  ?trace_rtts:Rtts.t ->
  ?truth:truth ->
  int ->
  t

val has_hostname : t -> bool

val has_rtt : t -> bool
(** True when any RTT sample (ping or traceroute) exists. *)

val min_ping_rtt : t -> (int * float) option
(** The (vp, rtt) pair with the smallest ping RTT; the first one on a
    tie. *)

val min_trace_rtt : t -> (int * float) option

val suffixes : t -> string list
(** Distinct registered suffixes of this router's hostnames. *)
