(** One crash_sim phase: a seeded cycle that checks one subsystem
    against its oracle, and the runner every phase shares.

    A cycle derives everything from its integer seed, so a reported
    violation reproduces by rerunning that seed. Run with [~sabotage]
    the cycle breaks its subsystem on purpose; the phase's negative
    control is a sabotaged cycle that passes [caught], proving the
    oracle has teeth. *)

type outcome = {
  seed : int;
  site : string;
      (** where the crash landed, or the generated input for the
          phases that do not crash *)
  counts : (string * int) list;
      (** named counts of the work the cycle did; every cycle of a
          phase returns the same names in the same order *)
  violations : string list;  (** [] = the oracle agreed *)
}

type t = {
  name : string;
  cycle : sabotage:bool -> seed:int -> outcome;
  caught : outcome -> bool;
      (** what a sabotaged cycle must show for the negative control
          to pass *)
}

val violated : outcome -> bool
(** The usual [caught]: the cycle reported at least one violation. *)

val count : (string * int) list -> string -> int
(** The named count; raises [Invalid_argument] for an unknown name. *)

type report = {
  cycles : int;
  counts : (string * int) list;  (** summed over the cycles *)
  violations : (int * string * string) list;
      (** seed, site, message — everything needed to reproduce *)
}

val run : ?sabotage:bool -> t -> quota:int -> base_seed:int -> report
(** [quota] cycles under seeds [base_seed], [base_seed+1], … *)

val control_bound : int
(** Most sabotaged cycles a negative control runs. *)

val control : t -> base_seed:int -> outcome option
(** Sabotaged cycles from [base_seed] until the first that passes
    [caught], at most {!control_bound} of them; [None] = the oracle
    caught nothing. *)

val pp_report : Format.formatter -> report -> unit
(** ["N cycles: n1 name1, n2 name2, …, V violations"], with break
    hints for the caller's box. *)
