(** Every crash_sim phase, in run order — the one place the set of
    phases is written down. A new phase is a module exporting a
    {!Phase.t} plus one entry here. *)

val all : Phase.t list
