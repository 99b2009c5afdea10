(** Run-time values of the MOOD data model.

    Values of *types* have copy semantics; *objects* (instances of
    classes) are identified by OID and referenced through [Ref]. Sets
    are kept canonical (sorted, duplicate-free under shallow
    comparison); lists preserve order and duplicates. *)

type t =
  | Null
  | Int of int
  | Long of int64
  | Float of float
  | Str of string
  | Char of char
  | Bool of bool
  | Tuple of (string * t) list
  | Set of t list  (** canonical: sorted and deduplicated *)
  | List of t list
  | Ref of Oid.t

val set : t list -> t
(** Builds a canonical [Set] from arbitrary elements. *)

val compare : t -> t -> int
(** Total order used by sorting and set canonicalization: shallow —
    references compare by OID, not by referent. Values of different
    shapes order by constructor. Numeric values compare cross-kind by
    numeric value ([Int 2 = Long 2L = Float 2.]). *)

val equal : t -> t -> bool
(** Shallow equality: [compare a b = 0]. *)

val hash : t -> int
(** A hash that agrees with [equal]: equal values hash alike, so
    [Int 2], [Long 2L] and [Float 2.] do, and so do [-0.0] and [0.0]. *)

val deep_equal : deref:(Oid.t -> t option) -> t -> t -> bool
(** Deep equality check used by [DupElim] on extents (Table 3):
    references are chased through [deref]; cycles are handled by
    coinductive assumption (two objects already under comparison are
    presumed equal). An unresolvable reference is only equal to the same
    OID. *)

val type_check : t -> Mtype.t -> bool
(** Structural conformance of a value to a declared type. [Null]
    conforms to every type; references conform to any [Reference]
    (class-level checking needs the catalog and happens there). String
    values longer than the declared length do not conform. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val assoc_name : string -> (string * 'a) list -> 'a option
(** [List.assoc_opt] for names, compared with [String.equal] rather
    than polymorphic [compare]; the first binding wins. *)

val tuple_get : t -> string -> t option
(** Attribute projection on [Tuple] values; [None] elsewhere. *)

val tuple_set : t -> string -> t -> t
(** Functional update of a tuple attribute. Raises [Invalid_argument] if
    the value is not a tuple declaring the attribute. *)

val as_float : t -> float option
(** Numeric view of [Int]/[Long]/[Float]; [None] elsewhere. *)

val truthy : t -> bool
(** Boolean view: [Bool b] is [b]; everything else raises
    [Invalid_argument] — predicates must be Boolean-typed. *)
