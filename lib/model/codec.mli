(** Binary (de)serialization of values for the storage manager.

    Records on slotted pages are byte strings; this codec is the
    boundary. The encoding is self-describing (a tag byte per value),
    length-prefixed for variable-size data, and round-trip exact. *)

val encode : Value.t -> string

val decode : string -> Value.t
(** Raises [Failure] on malformed input. *)

val encoded_size : Value.t -> int
(** [String.length (encode v)] without materializing the string. *)

(** {2 Framing}

    The primitives of the format, for records that embed encoded values
    in a framing of their own (the value joins' spill records). *)

val add_int : Buffer.t -> int -> unit
(** 8 bytes, big-endian. *)

val add_string : Buffer.t -> string -> unit
(** The length ([add_int]), then the bytes. *)

val add_value : Buffer.t -> Value.t -> unit
(** Appends [encode v]. *)

type cursor
(** A read position in a string, starting at 0. *)

val cursor : string -> cursor

val at_end : cursor -> bool

val read_char : cursor -> char

val read_int : cursor -> int

val read_string : cursor -> string

val read_value : cursor -> Value.t
(** Each reader advances past what it read and raises [Failure] on
    truncated or malformed input. *)
