(** The MOOD type system.

    Basic types are Integer, Float, LongInteger, String, Char and
    Boolean; complex types are built by recursive application of the
    Tuple, Set, List and Reference constructors (Section 2 / 3.1).
    References name the target *class*; the catalog resolves the name to
    a class id at definition time. *)

type basic =
  | Integer
  | Float
  | Long_integer
  | String of int  (** declared maximum length, e.g. [String(32)] *)
  | Char
  | Boolean

type t =
  | Basic of basic
  | Tuple of (string * t) list  (** attribute name, attribute type *)
  | Set of t
  | List of t
  | Reference of string  (** target class name *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints MOODSQL DDL syntax: [Integer], [String(32)],
    [REFERENCE (Company)], [SET (Integer)], [TUPLE (a Integer, ...)]. *)

val to_string : t -> string

val byte_size : t -> int
(** Declared storage footprint of an instance, used for [size(C)]
    statistics: Integer/Float/Long have fixed widths (4, 8, 8), String
    its declared length, Char/Boolean 1, Reference 8 (an OID), Tuple the
    sum of its attributes, Set/List a 64-byte descriptor (elements live
    out-of-line). *)

val is_atomic : t -> bool
(** True for basic types — the attributes on which "immediate"
    selections and conventional indexes are defined. *)

val referenced_class : t -> string option
(** The class named by a [Reference] (looking through [Set]/[List] of
    references, as path expressions do). *)
