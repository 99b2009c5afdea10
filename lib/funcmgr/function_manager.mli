(** The Function Manager (Section 2).

    "A Function Manager responsible for adding, updating, deleting and
    invoking the member functions of the classes." Member-function
    *signatures* live in the catalog; *bodies* live here, one "shared
    object" container per class mirroring the paper's per-class
    directory of object files. Invocation follows the paper's control
    flow exactly:

    + the signature is constructed from the class name the function is
      applied to and its parameter list;
    + it is located in the catalog (walking the IS-A hierarchy, which is
      how late binding resolves to the most-derived implementation);
    + the owning class's shared-object file is opened (charged as one
      random page read) and the function loaded into memory;
    + the loaded function stays cached until the scope changes.

    Adding or replacing a function preprocesses and "compiles" its
    MoodC source once, taking an exclusive lock on the class's shared
    object for the duration (concurrent invokers of {e other} classes
    are unaffected; the server is never recompiled or restarted).
    Native OCaml closures can be registered too (the compiled-C++
    analogue). Run-time failures — including [Division_by_zero]-style
    "signals" — surface as [Mood_exception] with interpreted-quality
    messages. *)

exception Mood_exception of { class_name : string; function_name : string; message : string }

type t

type body =
  | Moodc of string
      (** source text; preprocessed and compiled at registration *)
  | Native of (deref:(Mood_model.Oid.t -> Mood_model.Value.t option) ->
               self:Mood_model.Value.t ->
               args:Mood_model.Value.t list ->
               Mood_model.Value.t)

val create : catalog:Mood_catalog.Catalog.t -> t

val signature_key :
  class_name:string -> function_name:string -> param_types:Mood_model.Mtype.t list -> string
(** The signature string used to locate functions, built "by using
    class name to which the function is applied and its parameter
    list". *)

val define :
  t ->
  class_name:string ->
  signature:Mood_catalog.Catalog.method_signature ->
  body ->
  unit
(** Registers signature (into the catalog, unless it already exists
    there) and body. Replaces an existing body under the same
    signature; the class's shared object is locked exclusively while
    being rewritten and invalidated from every open scope's cache. *)

val drop : t -> class_name:string -> function_name:string -> unit
(** Removes body and catalog signature. *)

type scope

val enter_scope : t -> scope
(** A program scope; loaded functions are cached per scope and unloaded
    when it exits (the paper: "function is kept in memory until the
    scope changes").

    Every invocation binds through its scope. The scope keeps, per
    (receiver class, function name, argument count), the body late
    binding resolved and the receiver's class. A binding holds until a
    [define] or [drop] of any class or a schema change (the catalog
    epoch) empties them all. A miss runs the paper's control flow: the
    catalog's arity check, the IS-A resolution and the load, which
    [loads] counts; a hit is one table lookup. *)

val exit_scope : t -> scope -> unit

val invoke :
  t ->
  scope:scope ->
  self:Mood_model.Oid.t ->
  function_name:string ->
  args:Mood_model.Value.t list ->
  Mood_model.Value.t
(** Late-bound invocation on the object [self]: fetches it, then
    [invoke_stored]. Raises [Mood_exception] when the object or its
    class is missing, the function cannot be resolved, the argument
    count mismatches, or the body fails at run time. *)

val invoke_stored :
  t ->
  scope:scope ->
  self:Mood_model.Oid.t ->
  value:Mood_model.Value.t ->
  function_name:string ->
  args:Mood_model.Value.t list ->
  Mood_model.Value.t
(** [invoke] on an object whose value the caller already holds — a
    scanned row's: binds by the class in [self]'s identifier and runs
    the body on [value], fetching nothing. *)

val invoke_on_value :
  t ->
  scope:scope ->
  class_name:string ->
  self:Mood_model.Value.t ->
  function_name:string ->
  args:Mood_model.Value.t list ->
  Mood_model.Value.t
(** Same, for a transient (non-stored) value of a known class. *)

val invoke_interpreted :
  t ->
  self:Mood_model.Oid.t ->
  function_name:string ->
  args:Mood_model.Value.t list ->
  Mood_model.Value.t
(** Strawman mode for the benches: resolve, re-preprocess, re-parse
    and walk the stored MoodC source on every call (what a full C++
    interpreter inside the kernel would do), with no scope. Raises
    [Mood_exception] for native bodies, which cannot be interpreted. *)

val moodc_sources : t -> (string * string * string) list
(** Every MoodC body held in the shared objects, as (class name,
    function name, source text) — what a schema dump replays through
    DEFINE METHOD. Native bodies are not listed (they have no portable
    source). *)

val loads : t -> int
(** Shared-object load count (cache misses across all scopes), for
    tests and benches. *)

val cached : scope -> int
(** Functions currently loaded in this scope. *)
