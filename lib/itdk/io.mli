(** Text serialization of datasets, in the spirit of the ITDK release
    format: a line-oriented, diff-friendly encoding that round-trips
    everything the learning method consumes (and the generator's ground
    truth, so experiments can be re-run from a saved file).

    Reading is total: malformed input is an [Error] naming its line,
    never an exception. Writing refuses a dataset whose strings the
    format cannot carry (a space or newline inside a hostname, say), so
    every text it produces reads back to an equal dataset. *)

type error = { line : int; msg : string }
(** [line] counts from 1; 0 when the file could not be opened. *)

val error_to_string : error -> string
(** ["line N: msg"] *)

val error_at : string -> error -> string
(** ["FILE:N: msg"] *)

val write : out_channel -> Dataset.t -> (unit, error) result
(** Writes nothing on [Error]; the error names the line the offending
    field would have gone on. *)

val to_string : Dataset.t -> (string, error) result

val read : in_channel -> (Dataset.t, error) result
(** Reads to end of file in one streaming pass through a fixed buffer
    (grown only for a line longer than it). *)

val of_string : string -> (Dataset.t, error) result

val read_file : string -> (Dataset.t, error) result

val save : string -> Dataset.t -> unit
(** Write to a file path. Raises [Failure] (["FILE:N: msg"]) on a
    dataset {!write} refuses, before creating the file. *)

val load : string -> Dataset.t
(** {!read_file}, raising [Failure] (["FILE:N: msg"]) on error. *)
