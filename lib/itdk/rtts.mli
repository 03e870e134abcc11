(** A router's RTT samples from one channel (ping or traceroute): an
    immutable sequence of (vp id, min RTT ms) pairs, in observation
    order, stored as an [int array] of VP ids beside a flat
    [Float.Array.t] of RTTs.

    The order is part of the value: ties in {!min}, the text corpus and
    the delta wire codec all follow it. Structural equality compares
    samples pairwise, like it did the list it replaces. *)

type t

val empty : t
val of_list : (int * float) list -> t
val to_list : t -> (int * float) list
val length : t -> int
val is_empty : t -> bool

val iter : (int -> float -> unit) -> t -> unit
val fold : ('a -> int -> float -> 'a) -> 'a -> t -> 'a

val for_all : (int -> float -> bool) -> t -> bool
(** In order, stopping at the first [false]. *)

val find_opt : int -> t -> float option
(** The RTT of the first sample from this VP. *)

val min : t -> (int * float) option
(** The first sample with the smallest RTT. *)

val map : (int -> float -> int * float) -> t -> t
val filter : (int -> float -> bool) -> t -> t
(** Both call [f] once per sample, in order. *)

(** An append-only buffer for building many values in turn without
    reallocating; the reader keeps one per channel. *)
module Builder : sig
  type rtts := t
  type t

  val create : unit -> t
  val add : t -> int -> float -> unit

  val freeze : t -> rtts
  (** The samples added since the last [freeze], copied out; empties
      the builder. *)
end
