(** The optimizer's selection dictionaries (Section 7, Tables 11–12).

    During parsing/classification the predicates of an AND-term are
    entered into ImmSelInfo (immediate selections), PathSelInfo (path
    selections) and OtherSelInfo; the ordering algorithms of Section 8
    read them. The [render_*] functions print the dictionaries in the
    paper's table layout (Table 16 is [render_path] on Example 8.1). *)

type settings = {
  join_force : Mood_cost.Join_cost.method_choice option;
      (** [SET JOIN_FORCE]: the method of every explicit equality join *)
  scan_force : Mood_cost.Scan_cost.choice option;  (** [SET SCAN_FORCE] *)
  join_mem_bytes : int;  (** [SET JOIN_MEM]: a value join's memory budget *)
}
(** One database's planner settings: [Db.t] holds them and [SET]
    replaces them. Planning reads them here; execution gets the budget
    through [Eval.env]. *)

val default_settings : settings
(** Nothing forced, [Join_cost.default_join_mem_bytes]. *)

type env = {
  catalog : Mood_catalog.Catalog.t;
  stats : Mood_cost.Stats.t;
  params : Mood_cost.Io_cost.params;
  settings : settings;
}

type imm_entry = {
  i_var : string;
  i_pred : Mood_sql.Ast.predicate;
  i_attr : string;
  i_cmp : Mood_sql.Ast.comparison;
  i_constant : Mood_model.Value.t;
  i_selectivity : float;
  i_indexed_cost : float option;  (** None when no index exists *)
  i_index_kind : [ `Btree | `Hash ] option;
  i_seq_cost : float;             (** sequential-scan cost of the class *)
  mutable i_access : [ `Indexed | `Sequential ];
      (** decided by Algorithm 8.1's index-selection step *)
}

type path_entry = {
  p_var : string;
  p_pred : Mood_sql.Ast.predicate;
  p_hops : Mood_cost.Selectivity.hop list;
  p_terminal_cls : string;
  p_terminal_attr : string;
  p_terminal_cmp : Mood_sql.Ast.comparison;
  p_terminal_constant : Mood_model.Value.t;
  p_selectivity : float;      (** path selectivity (Section 4.1 formula) *)
  p_forward_cost : float;     (** F: forward traversal cost from the full extent *)
  p_rank : float;             (** F / (1 - s) *)
}

type other_entry = {
  o_pred : Mood_sql.Ast.predicate;
  o_selectivity : float;  (** [other_selectivity] of the predicate *)
}

val default_other_selectivity : float
(** 1/3 — the traditional guess for opaque predicates. *)

val other_selectivity :
  env -> bindings:(string * string) list -> Mood_sql.Ast.predicate -> float
(** The selectivity of a predicate the Section 4.1 formulas do not
    cover, under [bindings] (variable to class). An equality between
    two range variables' attribute paths, [l.a = r.b], takes System R's
    1 / max(dist(a), dist(b)), each [dist] read on the class hosting
    the path's last attribute; anything else, or an unknown [dist],
    takes [default_other_selectivity]. OtherSelInfo and
    [Card_est] both read it. *)

val atomic_selectivity :
  env -> cls:string -> attr:string -> Mood_sql.Ast.comparison -> Mood_model.Value.t -> float
(** Selectivity of [cls.attr θ constant] from the statistics (Section
    4.1's atomic formulas). Unknown attributes give 1. *)

val imm_entry :
  env -> var:string -> cls:string -> attr:string ->
  Mood_sql.Ast.comparison -> Mood_model.Value.t -> imm_entry

val path_entry :
  env ->
  var:string ->
  cls:string ->
  path:string list ->
  cmp:Mood_sql.Ast.comparison ->
  constant:Mood_model.Value.t ->
  k:float ->
  path_entry option
(** [None] when the path does not resolve against the catalog. [k] is
    the number of head objects the traversal starts from (the class
    cardinality before other restrictions). *)

val render_imm : imm_entry list -> string
(** Table 11 layout. *)

val render_path : path_entry list -> string
(** Table 12 + the cost columns of Table 16. *)

val render_other : other_entry list -> string
(** OtherSelInfo — "the data structure for this dictionary is also the
    same as that of ImmSelInfo" (Section 7); selectivities are
    [other_selectivity]'s. *)
