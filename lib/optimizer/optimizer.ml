module Ast = Mood_sql.Ast
module Classify = Mood_sql.Classify
module Dnf = Mood_sql.Dnf
module Simplify = Mood_sql.Simplify
module Typecheck = Mood_sql.Typecheck
module Catalog = Mood_catalog.Catalog
module Stats = Mood_cost.Stats
module Sel = Mood_cost.Selectivity
module Join_cost = Mood_cost.Join_cost
module Value = Mood_model.Value

type trace = {
  t_imm : (string * Dicts.imm_entry list) list;
  t_paths : Dicts.path_entry list;
  t_others : Dicts.other_entry list;
  t_and_terms : int;
  t_est_cost : float;
}

type optimized = { plan : Plan.node; trace : trace }

let fresh_var_name ~taken attr =
  let base = if String.length attr > 0 then String.make 1 attr.[0] else "x" in
  if not (List.mem base taken) then base
  else begin
    let rec number i =
      let candidate = Printf.sprintf "%s%d" base i in
      if List.mem candidate taken then number (i + 1) else candidate
    in
    number 2
  end

(* One connected group of range variables during planning. *)
type component = {
  mutable plan : Plan.node;
  mutable comp_vars : string list;
  mutable ks : (string * float) list; (* var -> estimated cardinality *)
  mutable accessed : bool;
  mutable in_memory : bool;
}

type planning = {
  env : Dicts.env;
  bindings : (string * string) list; (* var -> class *)
  reads : Plan.reads; (* what the statement reads through each variable *)
  mutable components : component list;
  mutable taken : string list;       (* used variable names *)
  mutable cost : float;
  mutable imm_dicts : (string * Dicts.imm_entry list) list;
  mutable path_dicts : Dicts.path_entry list;
  mutable other_dicts : Dicts.other_entry list;
}

let class_of p var = List.assoc var p.bindings

let component_of p var =
  List.find (fun c -> List.mem var c.comp_vars) p.components

let k_of_var p var =
  let c = component_of p var in
  Option.value ~default:1. (List.assoc_opt var c.ks)

let set_k p var k =
  let c = component_of p var in
  c.ks <- (var, k) :: List.remove_assoc var c.ks

(* Chain endpoint classes of a path on [cls]: the hosts of each
   navigated attribute (head first), terminal included. *)
let chain_classes p cls path =
  match Catalog.resolve_path p.env.Dicts.catalog ~class_name:cls ~path with
  | Some steps -> List.map fst steps
  | None -> []

(* ------------------------------------------------------------------ *)
(* Base access per range variable (Section 8.1)                        *)

(* [source] read through the indexes [decision] chose, or scanned when
   it chose none. *)
let indexed_access source (decision : Atomic_order.decision) =
  match decision.Atomic_order.indexed with
  | [] -> source
  | indexed ->
      Plan.Ind_sel
        { source;
          preds =
            List.map
              (fun (e : Dicts.imm_entry) ->
                { Plan.ip_attr = e.Dicts.i_attr;
                  ip_cmp = e.Dicts.i_cmp;
                  ip_constant = e.Dicts.i_constant;
                  ip_kind = Option.value ~default:`Btree e.Dicts.i_index_kind
                })
              indexed
        }

let base_access p ~(from_item : Ast.from_item) imm_entries imm_methods others =
  let var = from_item.Ast.var in
  let cls = class_of p var in
  let decision = Atomic_order.decide p.env ~cls imm_entries in
  let bind =
    if from_item.Ast.named then Plan.Named_obj { name = from_item.Ast.class_name; var }
    else
      Plan.Bind
        { class_name = cls;
          var;
          every = from_item.Ast.every;
          minus = from_item.Ast.minus
        }
  in
  let with_index = if from_item.Ast.named then bind else indexed_access bind decision in
  (* Residual immediate selections in ascending-selectivity order, then
     parameterless methods and other var-local predicates. *)
  let residual_preds =
    if from_item.Ast.named then
      (* all immediate predicates apply as residual filters on the one object *)
      List.map (fun (e : Dicts.imm_entry) -> e.Dicts.i_pred) imm_entries
    else List.map (fun (e : Dicts.imm_entry) -> e.Dicts.i_pred) decision.Atomic_order.residual
  in
  let extra_preds = imm_methods @ others in
  let selected =
    match residual_preds @ extra_preds with
    | [] -> with_index
    | preds -> Plan.Select { source = with_index; var; pred = Ast.conj preds }
  in
  let cardinality = float_of_int (Stats.cardinality p.env.Dicts.stats cls) in
  let extra_sel =
    Dicts.default_other_selectivity ** float_of_int (List.length extra_preds)
  in
  let k =
    if from_item.Ast.named then 1.
    else Float.max 1. (cardinality *. decision.Atomic_order.combined_selectivity *. extra_sel)
  in
  p.cost <-
    p.cost
    +.
    if from_item.Ast.named then Mood_cost.Io_cost.rndcost p.env.Dicts.params 1.
    else decision.Atomic_order.access_cost;
  let accessed =
    decision.Atomic_order.indexed <> [] || residual_preds <> [] || extra_preds <> []
  in
  (selected, k, accessed)

(* ------------------------------------------------------------------ *)
(* Path expressions (Algorithms 8.1 + 8.2)                             *)

(* Build endpoints for Algorithm 8.2 over a path rooted at [var]. *)
let path_endpoints p ~var (entry : Dicts.path_entry) =
  let head = component_of p var in
  let cls = class_of p var in
  let classes = chain_classes p cls (List.map (fun (h : Sel.hop) -> h.Sel.attr) entry.Dicts.p_hops @ [ entry.Dicts.p_terminal_attr ]) in
  (* classes = hosts of each attribute: [C0; C1; ...; C_{m-1}] with the
     terminal attribute hosted by the last. *)
  let intermediate = match classes with [] -> [] | _ :: rest -> rest in
  let n = List.length intermediate in
  let endpoints_tail =
    List.mapi
      (fun i target_cls ->
        let hop = List.nth entry.Dicts.p_hops i in
        let v = fresh_var_name ~taken:p.taken hop.Sel.attr in
        p.taken <- v :: p.taken;
        let bind = Plan.Bind { class_name = target_cls; var = v; every = false; minus = [] } in
        let card = float_of_int (Stats.cardinality p.env.Dicts.stats target_cls) in
        if i = n - 1 then begin
          (* Terminal class carries the atomic selection, read through
             an index when Section 8.1's rule prefers it to a scan. Its
             k and its uncharged access are the same either way, so
             join ordering and method choice do not change. *)
          let terminal =
            Dicts.imm_entry p.env ~var:v ~cls:target_cls ~attr:entry.Dicts.p_terminal_attr
              entry.Dicts.p_terminal_cmp entry.Dicts.p_terminal_constant
          in
          let e_plan =
            match Atomic_order.decide p.env ~cls:target_cls [ terminal ] with
            | { Atomic_order.indexed = []; _ } ->
                Plan.Select { source = bind; var = v; pred = terminal.Dicts.i_pred }
            | decision -> indexed_access bind decision
          in
          { Join_order.e_plan;
            e_var = v;
            e_cls = target_cls;
            e_k = Float.max 1. (card *. terminal.Dicts.i_selectivity);
            e_accessed = true;
            e_in_memory = false
          }
        end
        else
          { Join_order.e_plan = bind;
            e_var = v;
            e_cls = target_cls;
            e_k = card;
            e_accessed = false;
            e_in_memory = false
          })
      intermediate
  in
  let head_endpoint =
    { Join_order.e_plan = head.plan;
      e_var = var;
      e_cls = cls;
      e_k = k_of_var p var;
      e_accessed = head.accessed;
      e_in_memory = head.in_memory
    }
  in
  head_endpoint :: endpoints_tail

(* A base plan whose only access is the extent itself (no attribute
   index probes): the shapes a path-index probe can replace. *)
let rec substitutable_bind = function
  | Plan.Bind _ -> true
  | Plan.Select { source; _ } -> substitutable_bind source
  | Plan.Named_obj _ | Plan.Ind_sel _ | Plan.Path_ind_sel _ | Plan.Join _
  | Plan.Project _ | Plan.Group _ | Plan.Sort _ | Plan.Union _ | Plan.Vscan _ ->
      false

let rec substitute_bind plan replacement =
  match plan with
  | Plan.Bind _ -> replacement
  | Plan.Select { source; var; pred } ->
      Plan.Select { source = substitute_bind source replacement; var; pred }
  | Plan.Named_obj _ | Plan.Ind_sel _ | Plan.Path_ind_sel _ | Plan.Join _
  | Plan.Project _ | Plan.Group _ | Plan.Sort _ | Plan.Union _ | Plan.Vscan _ ->
      plan

(* Cost of answering the path expression with a path index [Kem 90]:
   probe the index, then fetch the surviving head objects. *)
let path_index_cost p ~cls (entry : Dicts.path_entry) full_path =
  match Catalog.find_path_index p.env.Dicts.catalog ~class_name:cls ~path:full_path with
  | None -> None
  | Some _ -> begin
      match
        Stats.index_stats p.env.Dicts.stats ~cls
          ~attr:("#path:" ^ String.concat "." full_path)
      with
      | None -> None (* index exists but statistics were never derived *)
      | Some ix ->
          let fs =
            Dicts.atomic_selectivity p.env ~cls:entry.Dicts.p_terminal_cls
              ~attr:entry.Dicts.p_terminal_attr entry.Dicts.p_terminal_cmp
              entry.Dicts.p_terminal_constant
          in
          let probe =
            match entry.Dicts.p_terminal_cmp with
            | Ast.Eq -> Mood_cost.Io_cost.indcost p.env.Dicts.params ix ~k:1
            | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
                Mood_cost.Io_cost.rngxcost p.env.Dicts.params ix ~fract:fs
          in
          let heads =
            float_of_int (Stats.cardinality p.env.Dicts.stats cls)
            *. entry.Dicts.p_selectivity
          in
          Some (probe +. Mood_cost.Io_cost.rndcost p.env.Dicts.params heads)
    end

(* First path expression of a variable: a path index when one exists and
   wins, otherwise full Algorithm 8.2. *)
let apply_path_with_join_ordering p ~var (entry : Dicts.path_entry) =
  let comp = component_of p var in
  let cls = class_of p var in
  let full_path =
    List.map (fun (h : Sel.hop) -> h.Sel.attr) entry.Dicts.p_hops
    @ [ entry.Dicts.p_terminal_attr ]
  in
  let endpoints = path_endpoints p ~var entry in
  let joined = Join_order.order p.env ~endpoints ~hops:entry.Dicts.p_hops in
  let via_index =
    if substitutable_bind comp.plan then path_index_cost p ~cls entry full_path else None
  in
  let used_index =
    match via_index with
    | Some index_cost when index_cost < joined.Join_order.r_cost ->
        let probe =
          Plan.Path_ind_sel
            { class_name = cls;
              var;
              path = full_path;
              cmp = entry.Dicts.p_terminal_cmp;
              constant = entry.Dicts.p_terminal_constant
            }
        in
        comp.plan <- substitute_bind comp.plan probe;
        p.cost <- p.cost +. index_cost;
        true
    | Some _ | None ->
        comp.plan <- joined.Join_order.r_plan;
        p.cost <- p.cost +. joined.Join_order.r_cost;
        false
  in
  comp.accessed <- true;
  comp.in_memory <- true;
  set_k p var
    (Float.max 1.
       (k_of_var p var
       *. (if used_index then entry.Dicts.p_selectivity else joined.Join_order.r_head_fraction)))

(* The variable naming the host class of [hop] inside the component:
   the user variable for the head class, otherwise the generated
   variable of the previous hop — found by scanning the plan for the
   most recent bind of that class. *)
let hop_var (hop : Sel.hop) ~plan ~fallback =
  let result = ref None in
  let rec walk = function
    | Plan.Bind { class_name; var; _ }
    | Plan.Path_ind_sel { class_name; var; _ }
    | Plan.Vscan { class_name; var; _ } ->
        if String.equal class_name hop.Sel.cls then result := Some var
    | Plan.Named_obj _ -> ()
    | Plan.Ind_sel { source; _ } | Plan.Select { source; _ } | Plan.Project { source; _ }
    | Plan.Group { source; _ } | Plan.Sort { source; _ } ->
        walk source
    | Plan.Join { left; right; _ } ->
        walk left;
        walk right
    | Plan.Union nodes -> List.iter walk nodes
  in
  walk plan;
  match !result with Some v -> v | None -> fallback

(* Subsequent path expressions: forward traversal from the shrunken
   candidate set (the paper's Example 8.1 treatment of P1). *)
let apply_path_with_forward_traversal p ~var (entry : Dicts.path_entry) =
  let comp = component_of p var in
  let endpoints = path_endpoints p ~var entry in
  let rec chain plan k hops endpoints_tail =
    match hops, endpoints_tail with
    | [], [] -> plan
    | (hop : Sel.hop) :: hops_rest, (e : Join_order.endpoint) :: endpoints_rest ->
        let pred =
          Ast.Cmp
            ( Ast.Eq,
              Ast.Path (hop_var hop ~plan ~fallback:var, [ hop.Sel.attr ]),
              Ast.Path (e.Join_order.e_var, []) )
        in
        let edge =
          { Join_cost.cls = hop.Sel.cls; attr = hop.Sel.attr; source_in_memory = true }
        in
        p.cost <- p.cost +. Join_cost.forward p.env.Dicts.params p.env.Dicts.stats edge ~k_c:k;
        let plan =
          Plan.Join
            { left = plan;
              right = e.Join_order.e_plan;
              method_ = Join_cost.Forward_traversal;
              pred
            }
        in
        let fan =
          match Stats.ref_stats p.env.Dicts.stats ~cls:hop.Sel.cls ~attr:hop.Sel.attr with
          | Some r -> r.Stats.fan
          | None -> 1.
        in
        chain plan (Float.max 1. (k *. fan)) hops_rest endpoints_rest
    | _, _ -> plan
  in
  match endpoints with
  | _ :: endpoints_tail ->
      comp.plan <- chain comp.plan (k_of_var p var) entry.Dicts.p_hops endpoints_tail;
      comp.accessed <- true;
      comp.in_memory <- true;
      set_k p var (Float.max 1. (k_of_var p var *. entry.Dicts.p_selectivity))
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Value-join footprints                                               *)

(* The [Codec]-encoded bytes of attribute [attr] of [cls]'s objects, from
   its type and [Stats.avg_width] (the payload width of its non-null
   values): a tag byte, a string's 8-byte length, the payload; a null
   is its tag byte alone. [None] when [cls] has no such attribute. *)
let attr_bytes (env : Dicts.env) cls attr =
  let module Mtype = Mood_model.Mtype in
  Option.map
    (fun ty ->
      match ty, Stats.attr_stats env.Dicts.stats ~cls ~attr with
      | Mtype.Basic b, Some s ->
          let length = match b with Mtype.String _ -> 8. | _ -> 0. in
          Float.to_int
            (Float.round
               ((s.Stats.notnull *. (1. +. length +. s.Stats.avg_width)) +. (1. -. s.Stats.notnull)))
      | Mtype.Reference _, _ -> 17
      | (Mtype.Set _ | Mtype.List _), _ -> begin
          match Stats.ref_stats env.Dicts.stats ~cls ~attr with
          | Some r -> 9 + Float.to_int (Float.round (17. *. r.Stats.fan))
          | None -> 9 + Mtype.byte_size ty
        end
      | (Mtype.Basic _ | Mtype.Tuple _), _ -> 9 + Mtype.byte_size ty)
    (Catalog.attribute_type env.Dicts.catalog ~class_name:cls ~attr)

(* The canonical key of a join attribute's value, as [Value_join]
   derives it: a numeric's 8 float bytes, a string's bytes, a
   reference's OID, after a kind tag. A collection key counts as one of
   its elements. *)
let key_bytes (env : Dicts.env) cls path =
  let module Mtype = Mood_model.Mtype in
  let rec element = function Mtype.Set ty | Mtype.List ty -> element ty | ty -> ty in
  match Catalog.resolve_path env.Dicts.catalog ~class_name:cls ~path, List.rev path with
  | Some (_ :: _ as steps), attr :: _ -> begin
      let host, ty = List.nth steps (List.length steps - 1) in
      match element ty with
      | Mtype.Basic (Mtype.String _) -> (
          match Stats.attr_stats env.Dicts.stats ~cls:host ~attr with
          | Some s -> 1 + int_of_float (Float.round s.Stats.avg_width)
          | None -> 9)
      | Mtype.Basic (Mtype.Char | Mtype.Boolean) -> 2
      | Mtype.Reference _ -> 17
      | Mtype.Basic _ | Mtype.Tuple _ | Mtype.Set _ | Mtype.List _ -> 9
    end
  | _, _ -> 9

let side_bytes env reads side ~key:(cls, path) ~k =
  let binding (var, cls) =
    let value =
      match reads var with
      | None -> (
          match Stats.class_stats env.Dicts.stats cls with
          | Some cs -> cs.Stats.obj_size
          | None -> 0)
      | Some attrs ->
          Join_cost.kept_bytes
            (List.filter_map (fun a -> Option.map (fun b -> (a, b)) (attr_bytes env cls a)) attrs)
    in
    Join_cost.binding_bytes ~var ~oid:true ~value
  in
  let bindings = List.fold_left (fun acc vc -> acc + binding vc) 0 (Plan.var_classes side) in
  k *. float_of_int (Join_cost.entry_bytes ~key:(key_bytes env cls path) ~bindings)

(* ------------------------------------------------------------------ *)
(* Explicit joins                                                      *)

let merge_components p a b plan =
  let merged =
    { plan;
      comp_vars = a.comp_vars @ b.comp_vars;
      ks = a.ks @ b.ks;
      accessed = true;
      in_memory = true
    }
  in
  p.components <- merged :: List.filter (fun c -> c != a && c != b) p.components;
  merged

let apply_explicit_join p (left : Classify.side) cmp (right : Classify.side) pred =
  let lcomp = component_of p left.Classify.var in
  let rcomp = component_of p right.Classify.var in
  if lcomp == rcomp then
    (* Same component already: a residual filter. *)
    lcomp.plan <- Plan.Select { source = lcomp.plan; var = left.Classify.var; pred }
  else begin
    match cmp, left.Classify.path, right.Classify.path with
    | Ast.Eq, (_ :: _ as lpath), [] ->
        (* Reference chain from the left variable into the right one:
           traverse the prefix forward, then join the final reference
           edge with the cheapest technique. *)
        let cls = class_of p left.Classify.var in
        let hosts = chain_classes p cls lpath in
        let hops =
          List.mapi (fun i attr -> { Sel.cls = List.nth hosts i; attr }) lpath
        in
        let prefix_hops, last_hop =
          match List.rev hops with
          | last :: prefix_rev -> (List.rev prefix_rev, last)
          | [] -> assert false
        in
        (* Forward-traverse the prefix inside the left component. *)
        let k = ref (k_of_var p left.Classify.var) in
        List.iter
          (fun (hop : Sel.hop) ->
            let target =
              match
                Catalog.resolve_path p.env.Dicts.catalog ~class_name:hop.Sel.cls
                  ~path:[ hop.Sel.attr ]
              with
              | Some [ (_, ty) ] -> Option.value ~default:hop.Sel.cls (Mood_model.Mtype.referenced_class ty)
              | _ -> hop.Sel.cls
            in
            let v = fresh_var_name ~taken:p.taken hop.Sel.attr in
            p.taken <- v :: p.taken;
            let right_bind = Plan.Bind { class_name = target; var = v; every = false; minus = [] } in
            let hop_pred =
              Ast.Cmp
                ( Ast.Eq,
                  Ast.Path
                    (hop_var hop ~plan:lcomp.plan ~fallback:left.Classify.var, [ hop.Sel.attr ]),
                  Ast.Path (v, []) )
            in
            let edge =
              { Join_cost.cls = hop.Sel.cls; attr = hop.Sel.attr; source_in_memory = lcomp.in_memory }
            in
            p.cost <- p.cost +. Join_cost.forward p.env.Dicts.params p.env.Dicts.stats edge ~k_c:!k;
            lcomp.plan <-
              Plan.Join
                { left = lcomp.plan; right = right_bind; method_ = Join_cost.Forward_traversal; pred = hop_pred };
            lcomp.in_memory <- true;
            let fan =
              match Stats.ref_stats p.env.Dicts.stats ~cls:hop.Sel.cls ~attr:hop.Sel.attr with
              | Some r -> r.Stats.fan
              | None -> 1.
            in
            k := Float.max 1. (!k *. fan))
          prefix_hops;
        (* Final edge: cheapest of the four techniques. *)
        let right_k = k_of_var p right.Classify.var in
        let method_, jc, _js =
          Join_order.edge_cost_and_selectivity p.env ~left_k:!k ~right_k
            ~right_accessed:rcomp.accessed ~left_in_memory:lcomp.in_memory ~hop:last_hop
        in
        (* A forced method (SET JOIN_FORCE) overrides the costed pick on
           this explicit edge, which keeps its computed cost. *)
        let method_ = Option.value ~default:method_ p.env.Dicts.settings.Dicts.join_force in
        p.cost <- p.cost +. jc;
        let join_pred =
          Ast.Cmp
            ( Ast.Eq,
              Ast.Path
                ( hop_var last_hop ~plan:lcomp.plan ~fallback:left.Classify.var,
                  [ last_hop.Sel.attr ] ),
              Ast.Path (right.Classify.var, []) )
        in
        ignore
          (merge_components p lcomp rcomp
             (Plan.Join { left = lcomp.plan; right = rcomp.plan; method_; pred = join_pred }))
    | _, _, _ ->
        (* General value join on attribute values: priced among the
           memory-bounded alternatives (nested loop, hash, Grace hash,
           sort-merge; fusion when the left key is a collection). *)
        let lcls = class_of p left.Classify.var in
        let rcls = class_of p right.Classify.var in
        let last_attr = function [] -> None | path -> Some (List.nth path (List.length path - 1)) in
        let l_collection =
          match left.Classify.path with
          | [] -> false
          | path -> (
              match Catalog.resolve_path p.env.Dicts.catalog ~class_name:lcls ~path with
              | Some hops ->
                  List.exists
                    (fun (_, ty) ->
                      match ty with
                      | Mood_model.Mtype.Set _ | Mood_model.Mtype.List _ -> true
                      | _ -> false)
                    hops
              | None -> false)
        in
        let side_of comp cls var path =
          let k = k_of_var p var in
          { Join_cost.v_cls = cls;
            v_rows = k;
            v_attr = last_attr path;
            v_bytes = side_bytes p.env p.reads comp.plan ~key:(cls, path) ~k
          }
        in
        let method_, jc =
          match cmp, p.env.Dicts.settings with
          | Ast.Eq, { Dicts.join_force = Some m; _ } ->
              (* SET JOIN_FORCE: the forced edge is priced at nothing. *)
              (m, 0.)
          | Ast.Eq, { Dicts.join_force = None; join_mem_bytes; _ } ->
              Join_cost.cheapest_value p.env.Dicts.params p.env.Dicts.stats
                ~mem_bytes:join_mem_bytes
                ~left:(side_of lcomp lcls left.Classify.var left.Classify.path)
                ~right:(side_of rcomp rcls right.Classify.var right.Classify.path)
                ~l_collection
          | _ ->
              (* No equality to key on: only the nested loop applies. *)
              let scan_cost =
                Mood_cost.Io_cost.seqcost p.env.Dicts.params
                  (Stats.nbpages p.env.Dicts.stats rcls)
              in
              (Join_cost.Nested_loop, scan_cost)
        in
        p.cost <- p.cost +. jc;
        ignore
          (merge_components p lcomp rcomp
             (Plan.Join { left = lcomp.plan; right = rcomp.plan; method_; pred }))
  end

(* ------------------------------------------------------------------ *)
(* AND-term planning                                                   *)

let plan_and_term env bindings reads (from_items : Ast.from_item list) classified trace_sink =
  let p =
    { env;
      bindings;
      (* A variable the planner generates (a path expression's hop)
         escapes whole: its bare [.self] in the hop predicate makes it
         escape in the plan ([Plan.reads]). *)
      reads = (fun v -> if List.mem_assoc v bindings then reads v else None);
      components = [];
      taken = List.map fst bindings;
      cost = 0.;
      imm_dicts = [];
      path_dicts = [];
      other_dicts = []
    }
  in
  let imm_of var =
    List.filter_map
      (function
        | Classify.Immediate { target; cmp; constant }
          when String.equal target.Classify.var var && List.length target.Classify.path = 1 ->
            let attr = List.hd target.Classify.path in
            Some (Dicts.imm_entry env ~var ~cls:(List.assoc var bindings) ~attr cmp constant)
        | _ -> None)
      classified
  in
  let imm_method_preds var =
    List.filter_map
      (function
        | Classify.Immediate_method { var = v; method_name; cmp; constant }
          when String.equal v var ->
            Some
              (Ast.Cmp (cmp, Ast.Method_call (v, [], method_name, []), Ast.Const constant))
        | _ -> None)
      classified
  in
  (* A predicate may name its variables more than once ([s.x > s.y]):
     it is placed by the set of variables it names. *)
  let vars_of pred = List.sort_uniq String.compare (Ast.predicate_vars pred) in
  let other_preds_of var =
    List.filter_map
      (function
        | Classify.Other pred -> begin
            match vars_of pred with
            | [ v ] when String.equal v var -> Some pred
            | _ -> None
          end
        | _ -> None)
      classified
  in
  let multi_var_others =
    List.filter_map
      (function
        | Classify.Other pred -> begin
            match vars_of pred with
            | [] | [ _ ] -> None
            | _ -> Some pred
          end
        | _ -> None)
      classified
  in
  (* 1. Base access per variable. *)
  List.iter
    (fun (item : Ast.from_item) ->
      let var = item.Ast.var in
      let imm = imm_of var in
      let plan, k, accessed =
        base_access p ~from_item:item imm (imm_method_preds var) (other_preds_of var)
      in
      p.imm_dicts <- (var, imm) :: p.imm_dicts;
      p.components <-
        { plan; comp_vars = [ var ]; ks = [ (var, k) ]; accessed; in_memory = false }
        :: p.components)
    from_items;
  p.components <- List.rev p.components;
  (* 2. Path expressions per variable, ordered by F/(1-s). *)
  List.iter
    (fun (item : Ast.from_item) ->
      let var = item.Ast.var in
      let cls = item.Ast.class_name in
      let entries =
        List.filter_map
          (function
            | Classify.Path_selection { target; cmp; constant }
              when String.equal target.Classify.var var ->
                Dicts.path_entry env ~var ~cls ~path:target.Classify.path ~cmp ~constant
                  ~k:(float_of_int (Stats.cardinality env.Dicts.stats cls))
            | _ -> None)
          classified
      in
      let ordered = Path_order.order_entries entries in
      p.path_dicts <- p.path_dicts @ ordered;
      List.iteri
        (fun i entry ->
          if i = 0 then apply_path_with_join_ordering p ~var entry
          else apply_path_with_forward_traversal p ~var entry)
        ordered)
    from_items;
  (* 3. Explicit joins. *)
  List.iter
    (function
      | Classify.Explicit_join { left; cmp; right } ->
          let pred =
            Ast.Cmp
              ( cmp,
                Ast.Path (left.Classify.var, left.Classify.path),
                Ast.Path (right.Classify.var, right.Classify.path) )
          in
          apply_explicit_join p left cmp right pred
      | Classify.Immediate _ | Classify.Immediate_method _ | Classify.Path_selection _
      | Classify.Other _ ->
          ())
    classified;
  (* 4. Cross products for any disconnected components. *)
  let rec connect = function
    | [] -> None
    | [ only ] -> Some only
    | a :: b :: rest ->
        let merged =
          merge_components p a b
            (Plan.Join
               { left = a.plan;
                 right = b.plan;
                 method_ = Join_cost.Backward_traversal;
                 pred = Ast.Ptrue
               })
        in
        connect (merged :: rest)
  in
  let final =
    match connect p.components with
    | Some c -> c
    | None -> assert false (* FROM is never empty *)
  in
  (* Record every Other-classified predicate in the OtherSelInfo
     dictionary (Section 7). *)
  List.iter
    (function
      | Classify.Other pred ->
          p.other_dicts <-
            p.other_dicts
            @ [ { Dicts.o_pred = pred;
                  o_selectivity = Dicts.other_selectivity env ~bindings pred
                }
              ]
      | Classify.Immediate _ | Classify.Immediate_method _ | Classify.Path_selection _
      | Classify.Explicit_join _ ->
          ())
    classified;
  (* 5. Residual multi-variable Other predicates. *)
  let final_plan =
    match multi_var_others with
    | [] -> final.plan
    | preds ->
        Plan.Select { source = final.plan; var = List.hd final.comp_vars; pred = Ast.conj preds }
  in
  trace_sink p;
  (final_plan, p.cost)

(* ------------------------------------------------------------------ *)
(* Vectorization rewrite                                               *)

(* Whether the batch compiler can run an expression over column arrays:
   constants, single-step attribute reads of the scan variable, and
   arithmetic over those. Method calls, multi-hop paths and bare [.self]
   references stay on the row engine. [Vectorize] binds exactly this
   grammar (with [vectorizable_pred] and [vectorizable_agg]) and has no
   row fallback, so these checks must guard every VSCAN built,
   [SCAN_FORCE VECTOR] included: any other shape raises there. *)
let rec vectorizable_expr ~var = function
  | Ast.Const _ -> true
  | Ast.Path (v, [ _ ]) -> String.equal v var
  | Ast.Arith (_, a, b) -> vectorizable_expr ~var a && vectorizable_expr ~var b
  | Ast.Neg e -> vectorizable_expr ~var e
  | Ast.Path _ | Ast.Method_call _ | Ast.Aggregate _ -> false

let rec vectorizable_pred ~var = function
  | Ast.Cmp (_, a, b) -> vectorizable_expr ~var a && vectorizable_expr ~var b
  | Ast.Is_null (e, _) -> vectorizable_expr ~var e
  | Ast.And (a, b) | Ast.Or (a, b) ->
      vectorizable_pred ~var a && vectorizable_pred ~var b
  | Ast.Not q -> vectorizable_pred ~var q
  | Ast.Ptrue | Ast.Pfalse -> true

let vectorizable_agg ~var = function
  | Ast.Aggregate (_, None) -> true
  | Ast.Aggregate (_, Some e) -> vectorizable_expr ~var e
  | _ -> false

(* The shapes a vectorized scan can replace: a bare extent bind,
   optionally under one var-local selection. *)
let scan_core = function
  | Plan.Bind { class_name; var; every; minus } ->
      Some (class_name, var, every, minus, None)
  | Plan.Select { source = Plan.Bind { class_name; var = bvar; every; minus }; var; pred }
    when String.equal var bvar ->
      Some (class_name, var, every, minus, Some pred)
  | _ -> None

let all_pax env ~class_name ~every:_ ~minus =
  (* IS-A scope: the executor's bind always includes subclass extents,
     so the layout check must cover them regardless of the EVERY flag. *)
  match Catalog.classes_in_scope env.Dicts.catalog ~every:true ~minus class_name with
  | [] -> false
  | classes ->
      List.for_all (fun c -> Catalog.layout env.Dicts.catalog c = Catalog.Pax) classes

let try_vscan env node =
  match scan_core node with
  | None -> None
  | Some (class_name, var, every, minus, pred) ->
      let pred_ok =
        match pred with None -> true | Some p -> vectorizable_pred ~var p
      in
      if not pred_ok then None
      else begin
        let pax = all_pax env ~class_name ~every ~minus in
        match
          Mood_cost.Scan_cost.choose env.Dicts.params env.Dicts.stats
            ~forced:env.Dicts.settings.Dicts.scan_force ~cls:class_name ~pax
        with
        | Mood_cost.Scan_cost.Vectorized, _ ->
            Some
              (Plan.Vscan
                 { class_name; var; every; minus; pred; by = []; having = None; aggregates = [] })
        | Mood_cost.Scan_cost.Row_scan, _ -> None
      end

(* Fuse eligible (Group over)? (Select over)? Bind cores into Vscan,
   descending only through the shaping wrappers the row engine keeps
   (projection, sort, union). A Group fuses when its keys and
   aggregates are vectorizable; HAVING needs no check, since it runs
   over the group rows. A Group with neither keys nor aggregates (a
   bare HAVING) has no fused form and stays above the scan. *)
let rec vectorize env node =
  match node with
  | Plan.Sort s -> Plan.Sort { s with source = vectorize env s.source }
  | Plan.Project p -> Plan.Project { p with source = vectorize env p.source }
  | Plan.Union nodes -> Plan.Union (List.map (vectorize env) nodes)
  | Plan.Group { source; by; having; aggregates } -> begin
      let fused =
        match scan_core source with
        | Some (_, var, _, _, _)
          when (by <> [] || aggregates <> [])
               && List.for_all (vectorizable_expr ~var) by
               && List.for_all (vectorizable_agg ~var) aggregates -> begin
            match try_vscan env source with
            | Some (Plan.Vscan v) -> Some (Plan.Vscan { v with by; having; aggregates })
            | Some _ | None -> None
          end
        | Some _ | None -> None
      in
      match fused with
      | Some v -> v
      | None -> Plan.Group { source = vectorize env source; by; having; aggregates }
    end
  | other -> ( match try_vscan env other with Some v -> v | None -> other)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let optimize env (q : Ast.query) =
  let bindings = Typecheck.check_query ~catalog:env.Dicts.catalog q in
  let where = Option.map Simplify.predicate q.Ast.where in
  let terms =
    match where with
    | None -> [ [] ]
    | Some p -> begin
        match Dnf.of_predicate p with
        | [] -> [] (* provably false *)
        | terms -> terms
      end
  in
  let imm_acc = ref [] and path_acc = ref [] and other_acc = ref [] and cost_acc = ref 0. in
  let sink (p : planning) =
    imm_acc := !imm_acc @ List.rev p.imm_dicts;
    path_acc := !path_acc @ p.path_dicts;
    other_acc := !other_acc @ p.other_dicts;
    cost_acc := !cost_acc +. p.cost
  in
  let classified = List.map (Classify.classify_term ~catalog:env.Dicts.catalog ~bindings) terms in
  (* Each aggregate once, in first-occurrence order: its label is the
     [#agg] field every reference reads, so a repeat (the same COUNT in
     SELECT and HAVING) would only be computed twice. *)
  let aggregates =
    List.concat_map (fun (i : Ast.select_item) -> Ast.aggregates_in i.Ast.expr) q.Ast.select
    @ (match q.Ast.having with Some h -> Ast.predicate_aggregates h | None -> [])
    @ List.concat_map (fun (e, _) -> Ast.aggregates_in e) q.Ast.order_by
  in
  let aggregates =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun agg ->
        let label = Ast.expr_to_string agg in
        if Hashtbl.mem seen label then false
        else begin
          Hashtbl.replace seen label ();
          true
        end)
      aggregates
  in
  let groups = q.Ast.group_by <> [] || q.Ast.having <> None || aggregates <> [] in
  (* The reads of the plan this builds ([Plan.reads]): its predicates
     are the classified terms', its expressions the clauses'. *)
  let reads =
    Plan.reads_of
      ~whole:(q.Ast.select = [] && not groups)
      (List.map (fun (i : Ast.select_item) -> i.Ast.expr) q.Ast.select
      @ q.Ast.group_by @ aggregates @ List.map fst q.Ast.order_by)
      (Option.to_list q.Ast.having @ List.concat_map (List.map Classify.predicate) classified)
  in
  let term_plans =
    List.map (fun c -> fst (plan_and_term env bindings reads q.Ast.from c sink)) classified
  in
  let unioned =
    match term_plans with
    | [] ->
        (* WHERE is FALSE: an empty union. *)
        Plan.Union []
    | [ only ] -> only
    | plans -> Plan.Union plans
  in
  let grouped =
    if groups then
      Plan.Group { source = unioned; by = q.Ast.group_by; having = q.Ast.having; aggregates }
    else unioned
  in
  let projected =
    match q.Ast.select with
    | [] -> grouped (* SELECT *: keep binding rows *)
    | items -> Plan.Project { source = grouped; items }
  in
  let sorted =
    if q.Ast.order_by = [] then projected
    else Plan.Sort { source = projected; keys = q.Ast.order_by }
  in
  let sorted = vectorize env sorted in
  { plan = sorted;
    trace =
      { t_imm = !imm_acc;
        t_paths = !path_acc;
        t_others = !other_acc;
        t_and_terms = List.length terms;
        t_est_cost = !cost_acc
      }
  }

let optimize_statement env = function
  | Ast.Select q | Ast.Explain { ex_query = q; _ } -> Some (optimize env q)
  | Ast.Create_class _ | Ast.Alter_class_layout _ | Ast.Create_index _
  | Ast.New_object _ | Ast.Update _ | Ast.Delete _ | Ast.Define_method _
  | Ast.Drop_method _ | Ast.Name_object _ | Ast.Drop_name _ | Ast.Set _ ->
      None
