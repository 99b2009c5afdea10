(** Classification of selection predicates (Section 7).

    Within an AND-term, each predicate is one of:
    - {b Immediate selection}: [s.A θ c] — atomic attribute or
      parameterless method of the range variable, compared to a
      constant (ImmSelInfo, Table 11);
    - {b Path selection}: [s.A1...Am θ c] — a multi-hop path expression
      against a constant, implying implicit joins (PathSelInfo,
      Table 12);
    - {b Explicit join}: a comparison relating two different range
      variables (e.g. [c.drivetrain.engine = v]);
    - {b Other selection}: method calls with parameters, arithmetic over
      attributes, and anything else (OtherSelInfo).

    Classification needs the catalog to distinguish an atomic attribute
    from the first hop of a path and to resolve parameterless methods. *)

type side = {
  var : string;       (** range variable *)
  path : string list; (** attribute chain; [] is the variable itself *)
}

type classified =
  | Immediate of { target : side; cmp : Ast.comparison; constant : Mood_model.Value.t }
  | Immediate_method of {
      var : string;
      method_name : string;
      cmp : Ast.comparison;
      constant : Mood_model.Value.t;
    }
  | Path_selection of { target : side; cmp : Ast.comparison; constant : Mood_model.Value.t }
  | Explicit_join of { left : side; cmp : Ast.comparison; right : side }
  | Other of Ast.predicate

val classify :
  catalog:Mood_catalog.Catalog.t ->
  bindings:(string * string) list ->
  Ast.predicate ->
  classified
(** [bindings] maps range variables to class names (from the FROM
    clause). Comparisons written constant-first are mirrored. A
    one-attribute path is Immediate only if the attribute is atomic on
    the variable's class; otherwise it is a path/other selection. *)

val classify_term :
  catalog:Mood_catalog.Catalog.t ->
  bindings:(string * string) list ->
  Dnf.and_term ->
  classified list

val predicate : classified -> Ast.predicate
(** The predicate as a plan evaluates it: constant-first comparisons
    mirrored, and a parameterless method written as a path ([v.m])
    called ([v.m()]). *)

val pp : Format.formatter -> classified -> unit
