open Parsetree

type diagnostic = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  advisory : bool;
      (** Advisory diagnostics are reported but never fail the run
          (exit code stays 0).  Today only [unused-waiver]. *)
}

let rule_ids =
  [
    "poly-compare";
    "handler-raise";
    "missing-mli";
    "print-in-lib";
    "metric-name";
    "unsafe-array";
    "energy-arith";
    "catch-all";
    "domain-confine";
    "dead-export";
    "unused-waiver";
  ]

(* ------------------------------------------------------------------ *)
(* Small string helpers (no regex dependency).                         *)
(* ------------------------------------------------------------------ *)

let find_sub s sub ~from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  if m = 0 then None else go from

let contains_sub s sub = Option.is_some (find_sub s sub ~from:0)

let path_components p =
  String.split_on_char '/' p |> List.filter (fun c -> c <> "" && c <> ".")

(* [lib] as a path component marks library code; [lib/metrics] and
   [lib/flow] are the rule-specific sanctuaries. *)
let rec has_component comps name =
  match comps with
  | [] -> false
  | c :: rest -> c = name || has_component rest name

let rec has_component_pair comps a b =
  match comps with
  | x :: (y :: _ as rest) ->
      (x = a && y = b) || has_component_pair rest a b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Waivers: a marker comment — "lint", a colon, then "allow rule-a,
   rule-b" — on the diagnostic's line or the line directly above it.
   Each waived rule id carries a used-flag; entries that end a run
   without suppressing anything are themselves reported (advisory
   [unused-waiver]), so stale markers cannot accumulate.              *)
(* ------------------------------------------------------------------ *)

type waiver_entry = { w_rule : string; mutable w_used : bool }

let waivers_of_source src =
  let tbl = Hashtbl.create 8 in
  List.iteri
    (fun i line ->
      match find_sub line "lint:" ~from:0 with
      | None -> ()
      | Some j ->
          let rest = String.sub line (j + 5) (String.length line - j - 5) in
          let rest = String.trim rest in
          if String.length rest >= 5 && String.sub rest 0 5 = "allow" then begin
            let ids = String.sub rest 5 (String.length rest - 5) in
            let ids =
              match find_sub ids "*)" ~from:0 with
              | None -> ids
              | Some k -> String.sub ids 0 k
            in
            let ids =
              String.map (fun c -> if c = ',' then ' ' else c) ids
              |> String.split_on_char ' '
              |> List.filter (fun s -> s <> "")
              |> List.map (fun r -> { w_rule = r; w_used = false })
            in
            let line_no = i + 1 in
            let prev = Option.value ~default:[] (Hashtbl.find_opt tbl line_no) in
            Hashtbl.replace tbl line_no (ids @ prev)
          end)
    (String.split_on_char '\n' src);
  tbl

let waived waivers ~rule ~line =
  let at l =
    List.fold_left
      (fun hit w ->
        if w.w_rule = rule then begin
          w.w_used <- true;
          true
        end
        else hit)
      false
      (Option.value ~default:[] (Hashtbl.find_opt waivers l))
  in
  (* Evaluate both lines so a duplicated marker is marked used too. *)
  let here = at line in
  let above = at (line - 1) in
  here || above

let unused_waiver_diags ~path waivers =
  Hashtbl.fold
    (fun line entries acc ->
      List.fold_left
        (fun acc w ->
          if w.w_used then acc
          else
            {
              rule = "unused-waiver";
              file = path;
              line;
              col = 0;
              message =
                Printf.sprintf
                  "waiver for `%s` suppresses nothing — delete the marker%s"
                  w.w_rule
                  (if List.mem w.w_rule rule_ids then ""
                   else " (not a known rule id; typo?)");
              advisory = true;
            }
            :: acc)
        acc entries)
    waivers []

(* ------------------------------------------------------------------ *)
(* Per-file context.                                                   *)
(* ------------------------------------------------------------------ *)

type metric_reg = { m_name : string; m_file : string; m_line : int }

type ctx = {
  path : string;
  in_lib : bool;  (** a [lib] path component is present *)
  in_lib_metrics : bool;
  in_lib_flow : bool;
  domain_ok : bool;
      (** [lib/prelude/pool.ml] and [lib/metrics/] may use Domain/Atomic
          (and the mutexes Metrics locks with); everyone else goes through
          the [Pool] facade. *)
  energy_impl : bool;  (** [energy.ml] itself implements the checks *)
  waivers : (int, waiver_entry list) Hashtbl.t;
  diags : diagnostic list ref;
  metric_regs : metric_reg list ref;
  (* Start offsets of identifier expressions exempt from [poly-compare]
     because they are label-punned arguments ([~compare] passing a local
     [compare]), which never denote [Stdlib.compare]. *)
  punned : (int, unit) Hashtbl.t;
  (* Name of the innermost handler-convention binding being traversed. *)
  mutable handler : string option;
}

let emit ctx ~rule ~loc message =
  let p = loc.Location.loc_start in
  let line = p.Lexing.pos_lnum in
  if not (waived ctx.waivers ~rule ~line) then
    ctx.diags :=
      {
        rule;
        file = ctx.path;
        line;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        message;
        advisory = false;
      }
      :: !(ctx.diags)

(* ------------------------------------------------------------------ *)
(* Longident / expression helpers.                                     *)
(* ------------------------------------------------------------------ *)

let flatten lid = try Longident.flatten lid with Misc.Fatal_error -> []

let last_of lid = match List.rev (flatten lid) with [] -> "" | x :: _ -> x

let dotted lid = String.concat "." (flatten lid)

(* Strip a leading [Stdlib] so [Stdlib.compare] and [compare] coincide. *)
let canonical lid =
  match flatten lid with "Stdlib" :: rest -> rest | l -> l

let point_markers =
  [ "pos"; "home"; "dest"; "position"; "location"; "site"; "from_"; "to_" ]

let energy_marker name =
  let n = String.lowercase_ascii name in
  contains_sub n "energy" || contains_sub n "capacit" || n = "cap"
  || (String.length n > 4 && String.sub n (String.length n - 4) 4 = "_cap")
  || (String.length n > 4 && String.sub n 0 4 = "cap_")

(* Does the syntactic subtree of [e] mention something matching the
   predicates?  [on_ident] sees identifier paths, [on_field] record-field
   names.  Bare identifiers are deliberately NOT fed to [on_field]: local
   variables named [pos] or [site] abound (e.g. parser cursors), whereas a
   field access [v.pos] reliably denotes domain state. *)
let mentions ~on_ident ~on_field e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> if on_ident (flatten txt) then found := true
          | Pexp_field (_, { txt; _ }) -> if on_field (last_of txt) then found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let mentions_point e =
  mentions
    ~on_ident:(fun _ -> false)
    ~on_field:(fun f -> List.mem f point_markers)
    e

let mentions_energy e =
  mentions
    ~on_ident:(fun comps ->
      match List.rev comps with x :: _ -> energy_marker x | [] -> false)
    ~on_field:energy_marker e

let is_handler_name n =
  String.starts_with ~prefix:"handle_" n
  || String.starts_with ~prefix:"on_" n
  || n = "dispatch"

let console_printers =
  [
    [ "print_string" ];
    [ "print_endline" ];
    [ "print_newline" ];
    [ "print_char" ];
    [ "print_int" ];
    [ "print_float" ];
    [ "print_bytes" ];
    [ "prerr_string" ];
    [ "prerr_endline" ];
    [ "prerr_newline" ];
    [ "prerr_char" ];
    [ "prerr_int" ];
    [ "prerr_float" ];
    [ "Printf"; "printf" ];
    [ "Printf"; "eprintf" ];
    [ "Format"; "printf" ];
    [ "Format"; "eprintf" ];
    [ "Format"; "print_string" ];
    [ "Format"; "print_newline" ];
  ]

let raise_family = [ [ "raise" ]; [ "raise_notrace" ]; [ "failwith" ]; [ "invalid_arg" ] ]

let is_valid_metric_name s =
  let lower c = c >= 'a' && c <= 'z' in
  let seg_char c = lower c || (c >= '0' && c <= '9') || c = '_' in
  let seg_ok seg =
    seg <> "" && lower seg.[0] && String.for_all seg_char seg
  in
  s <> ""
  &&
  let segs = String.split_on_char '.' s in
  List.length segs >= 2 && List.for_all seg_ok segs

(* Catch-all patterns in a [try]: [_], possibly under alias/or-patterns. *)
let rec pattern_catches_all p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (q, _) -> pattern_catches_all q
  | Ppat_or (a, b) -> pattern_catches_all a || pattern_catches_all b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The traversal.                                                      *)
(* ------------------------------------------------------------------ *)

let check_ident ctx lid loc =
  let comps = canonical lid in
  (* Rule: poly-compare (identifier forms). *)
  (match comps with
  | [ "compare" ] ->
      if not (Hashtbl.mem ctx.punned loc.Location.loc_start.Lexing.pos_cnum) then
        emit ctx ~rule:"poly-compare" ~loc
          (Printf.sprintf
             "polymorphic `%s` — use a dedicated comparator (Point.compare, \
              Int.compare, Float.compare, ...)"
             (dotted lid))
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
      emit ctx ~rule:"poly-compare" ~loc
        (Printf.sprintf
           "polymorphic `%s` on domain values — use the dedicated hash \
            (e.g. Point.hash)"
           (dotted lid))
  | _ -> ());
  (* Rule: unsafe-array. *)
  (match comps with
  | [ ("Array" | "Bytes" | "String" | "Float"); name ]
    when String.starts_with ~prefix:"unsafe_" name ->
      if not ctx.in_lib_flow then
        emit ctx ~rule:"unsafe-array" ~loc
          (Printf.sprintf
             "`%s` outside lib/flow — unchecked accesses are reserved for \
              the max-flow hot path"
             (dotted lid))
  | _ -> ());
  (* Rule: domain-confine. *)
  (match comps with
  | ("Domain" | "Atomic" | "Mutex" | "Condition") :: _ :: _ when not ctx.domain_ok ->
      emit ctx ~rule:"domain-confine" ~loc
        (Printf.sprintf
           "`%s` outside lib/prelude/pool.ml and lib/metrics — parallelism \
            goes through the deterministic Pool facade, and only Metrics \
            carries its own locking"
           (dotted lid))
  | _ -> ());
  (* Rule: print-in-lib. *)
  if ctx.in_lib && not ctx.in_lib_metrics && List.mem comps console_printers then
    emit ctx ~rule:"print-in-lib" ~loc
      (Printf.sprintf
         "console output `%s` in library code — only lib/metrics may print; \
          return strings or take an explicit out channel/formatter"
         (dotted lid));
  (* Rule: handler-raise. *)
  match ctx.handler with
  | Some h when List.mem comps raise_family ->
      emit ctx ~rule:"handler-raise" ~loc
        (Printf.sprintf
           "`%s` inside event handler `%s` — DES handlers and online step \
            functions must return a result/variant instead of raising"
           (dotted lid) h)
  | _ -> ()

let check_apply ctx fn_lid args loc =
  let comps = canonical fn_lid in
  (* Register label-punned arguments before children are visited. *)
  List.iter
    (fun (label, (arg : expression)) ->
      match (label, arg.pexp_desc) with
      | Asttypes.Labelled l, Pexp_ident { txt = Longident.Lident id; _ }
        when l = id ->
          Hashtbl.replace ctx.punned arg.pexp_loc.loc_start.Lexing.pos_cnum ()
      | _ -> ())
    args;
  let unlabeled =
    List.filter_map
      (fun (l, a) -> match l with Asttypes.Nolabel -> Some a | _ -> None)
      args
  in
  (* Rule: poly-compare (structural (in)equality on Point-like operands). *)
  (match comps with
  | [ ("=" | "<>" | "==" | "!=") ] when List.exists mentions_point unlabeled ->
      emit ctx ~rule:"poly-compare" ~loc
        (Printf.sprintf
           "polymorphic `%s` applied to a Point-valued operand — use \
            Point.equal (L1 bookkeeping must not rely on structural compare)"
           (dotted fn_lid))
  | _ -> ());
  (* Rule: poly-compare (record field tested against [] with structural
     equality).  [o.failures = []] deep-compares every element — floats,
     records, whatever the list holds; emptiness is a pattern match. *)
  let is_nil (e : expression) =
    match e.pexp_desc with
    | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> true
    | _ -> false
  in
  let is_field (e : expression) =
    match e.pexp_desc with Pexp_field _ -> true | _ -> false
  in
  (match (comps, unlabeled) with
  | [ ("=" | "<>" | "==" | "!=") ], [ a; b ]
    when (is_nil a && is_field b) || (is_field a && is_nil b) ->
      emit ctx ~rule:"poly-compare" ~loc
        (Printf.sprintf
           "structural `%s` between a record field and `[]` — test emptiness \
            with a pattern match; structural equality deep-compares whatever \
            the list holds"
           (dotted fn_lid))
  | _ -> ());
  (* Rule: energy-arith. *)
  (match comps with
  | [ (("+" | "-" | "*") as op) ]
    when (not ctx.energy_impl)
         && List.length unlabeled = 2
         && List.exists mentions_energy unlabeled ->
      emit ctx ~rule:"energy-arith" ~loc
        (Printf.sprintf
           "raw integer `%s` on an energy/capacity quantity — route it \
            through Energy.add/sub/scale/sum (lib/prelude) so overflow \
            cannot silently corrupt the paper's bounds"
           op)
  | _ -> ());
  (* Rule: metric-name. *)
  match (comps, unlabeled) with
  | [ "Metrics"; ("counter" | "gauge" | "timer" | "histogram") ], first :: _ -> (
      match first.pexp_desc with
      | Pexp_constant (Pconst_string (name, _, _)) ->
          let line = first.pexp_loc.loc_start.Lexing.pos_lnum in
          if not (is_valid_metric_name name) then
            emit ctx ~rule:"metric-name" ~loc:first.pexp_loc
              (Printf.sprintf
                 "metric name %S does not match the `subsystem.name` scheme \
                  (lowercase [a-z0-9_] segments separated by dots)"
                 name)
          else if not (waived ctx.waivers ~rule:"metric-name" ~line) then
            ctx.metric_regs :=
              { m_name = name; m_file = ctx.path; m_line = line }
              :: !(ctx.metric_regs)
      | _ ->
          emit ctx ~rule:"metric-name" ~loc:first.pexp_loc
            "metric name is not a string literal — register metrics with \
             literal `subsystem.name` strings so the registry stays auditable")
  | _ -> ()

let iterator_for ctx =
  let open Ast_iterator in
  {
    default_iterator with
    expr =
      (fun it e ->
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> check_ident ctx txt e.pexp_loc
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
            check_apply ctx txt args e.pexp_loc
        | Pexp_record (fields, _) ->
            (* Punned fields ([{ compare; ... }]) denote locals, never
               Stdlib.compare. *)
            List.iter
              (fun (({ txt; _ } : Longident.t Location.loc), (v : expression)) ->
                match v.pexp_desc with
                | Pexp_ident { txt = Longident.Lident id; _ } when id = last_of txt ->
                    Hashtbl.replace ctx.punned v.pexp_loc.loc_start.Lexing.pos_cnum ()
                | _ -> ())
              fields
        | Pexp_try (_, cases) ->
            List.iter
              (fun c ->
                if pattern_catches_all c.pc_lhs then
                  emit ctx ~rule:"catch-all" ~loc:c.pc_lhs.ppat_loc
                    "catch-all exception handler (`try ... with _ ->`) — \
                     match the specific exceptions; a blanket handler hides \
                     accounting bugs and swallows Out_of_memory")
              cases
        | Pexp_assert
            { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
          -> (
            match ctx.handler with
            | Some h ->
                emit ctx ~rule:"handler-raise" ~loc:e.pexp_loc
                  (Printf.sprintf
                     "`assert false` inside event handler `%s` — handlers \
                      must not raise mid-simulation"
                     h)
            | None -> ())
        | _ -> ());
        default_iterator.expr it e);
    value_binding =
      (fun it vb ->
        let name =
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> Some txt
          | _ -> None
        in
        match name with
        | Some n when is_handler_name n ->
            let saved = ctx.handler in
            ctx.handler <- Some n;
            default_iterator.value_binding it vb;
            ctx.handler <- saved
        | _ -> default_iterator.value_binding it vb);
  }

(* ------------------------------------------------------------------ *)
(* Driving: file discovery, parsing, cross-file checks.                *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Rule: dead-export.  Every [val] of a [lib/] interface — and every
   [val] one level down, in a [module X : sig ... end] — needs a
   qualified reference [M.v] (or [M.X.v]) from a .ml of another module
   somewhere in the repository the interface sits in.  No project module
   is opened or aliased, so [Pexp_ident] paths are all the references
   there are.                                                          *)
(* ------------------------------------------------------------------ *)

let caller_dirs = [ "lib"; "bin"; "bench"; "benchmark"; "examples"; "tools"; "test" ]

let module_name path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The directory that holds the innermost [lib] component of [path]. *)
let rec repo_root path =
  let d = Filename.dirname path in
  if d = path then None
  else if Filename.basename d = "lib" then Some (Filename.dirname d)
  else repo_root d

let rec collect_ml ?(skip = fun _ -> false) acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if entry = "_build" || String.starts_with ~prefix:"." entry || skip entry
           then acc
           else collect_ml ~skip acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* Every dotted value path [A.b] or [A.B.c] that some .ml under [root]'s
   caller directories names, except a module's references to itself. *)
let references root =
  let refs = Hashtbl.create 1024 in
  let files =
    List.fold_left
      (fun acc d ->
        let dir = Filename.concat root d in
        if Sys.file_exists dir then collect_ml ~skip:(String.equal "fixtures") acc dir
        else acc)
      [] caller_dirs
  in
  List.iter
    (fun file ->
      let self = module_name file in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_ident { txt; _ } -> (
                  match flatten txt with
                  | m :: _ :: _ as comps when m <> self ->
                      Hashtbl.replace refs (String.concat "." comps) ()
                  | _ -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      match Parse.implementation (Lexing.from_string (read_file file)) with
      | structure -> it.structure it structure
      | exception (Syntaxerr.Error _ | Lexer.Error _) -> ())
    files;
  refs

(* The [val]s of an interface, top level and one module level down, as
   paths below the module: [["v"]] or [["X"; "v"]]. *)
let exported_values signature =
  let value prefix item =
    match item.psig_desc with
    | Psig_value vd -> Some (prefix @ [ vd.pval_name.txt ], vd.pval_loc)
    | _ -> None
  in
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_module
          { pmd_name = { txt = Some x; _ }; pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ }
        ->
          List.filter_map (value [ x ]) sg
      | _ -> Option.to_list (value [] item))
    signature

let parse_error ~path lexbuf =
  let p = lexbuf.Lexing.lex_curr_p in
  {
    rule = "parse-error";
    file = path;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    message = "file does not parse as OCaml — cmvrp_lint cannot check it";
    advisory = false;
  }

let dead_export_diags ~refs mli =
  let src = read_file mli in
  let waivers = waivers_of_source src in
  let m = module_name mli in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf mli;
  match Parse.interface lexbuf with
  | exception (Syntaxerr.Error _ | Lexer.Error _) -> [ parse_error ~path:mli lexbuf ]
  | signature ->
      let dead =
        List.filter_map
          (fun (names, (loc : Location.t)) ->
            let name = String.concat "." (m :: names) in
            let p = loc.loc_start in
            let line = p.Lexing.pos_lnum in
            if Hashtbl.mem refs name || waived waivers ~rule:"dead-export" ~line then None
            else
              Some
                {
                  rule = "dead-export";
                  file = mli;
                  line;
                  col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
                  message =
                    Printf.sprintf
                      "`%s` has no caller outside %s — delete it, or drop it \
                       from the interface if its own module still uses it"
                      name (String.uncapitalize_ascii m ^ ".ml");
                  advisory = false;
                })
          (exported_values signature)
      in
      dead @ unused_waiver_diags ~path:mli waivers

let lint_one ~diags ~metric_regs ~references path =
  let src = read_file path in
  let comps = path_components path in
  let ctx =
    {
      path;
      in_lib = has_component comps "lib";
      in_lib_metrics = has_component_pair comps "lib" "metrics";
      in_lib_flow = has_component_pair comps "lib" "flow";
      domain_ok =
        has_component_pair comps "lib" "metrics"
        || (has_component_pair comps "lib" "prelude"
           && Filename.basename path = "pool.ml");
      energy_impl = Filename.basename path = "energy.ml";
      waivers = waivers_of_source src;
      diags;
      metric_regs;
      punned = Hashtbl.create 8;
      handler = None;
    }
  in
  (* Rule: missing-mli (library modules must publish an interface). *)
  if ctx.in_lib && not (Sys.file_exists (path ^ "i")) then
    emit ctx ~rule:"missing-mli"
      ~loc:
        {
          Location.loc_ghost = false;
          loc_start = { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
          loc_end = { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
        }
      (Printf.sprintf
         "library module has no interface — add %si (every module under lib/ \
          ships an .mli)"
         (Filename.basename path));
  (* Rule: dead-export, over the interface beside a library module. *)
  (if ctx.in_lib && Sys.file_exists (path ^ "i") then
     match repo_root path with
     | Some root -> diags := dead_export_diags ~refs:(references root) (path ^ "i") @ !diags
     | None -> ());
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | structure ->
      let it = iterator_for ctx in
      it.structure it structure;
      diags := unused_waiver_diags ~path ctx.waivers @ !diags
  | exception (Syntaxerr.Error _ | Lexer.Error _) ->
      diags := parse_error ~path lexbuf :: !diags

let compare_diags a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

let duplicate_metric_diags regs =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_name r.m_name) in
      Hashtbl.replace by_name r.m_name (r :: prev))
    regs;
  Hashtbl.fold
    (fun name sites acc ->
      let sites =
        List.sort_uniq
          (fun a b ->
            match String.compare a.m_file b.m_file with
            | 0 -> Int.compare a.m_line b.m_line
            | c -> c)
          sites
      in
      match sites with
      | [] | [ _ ] -> acc
      | first :: rest ->
          List.fold_left
            (fun acc r ->
              {
                rule = "metric-name";
                file = r.m_file;
                line = r.m_line;
                col = 0;
                message =
                  Printf.sprintf
                    "metric %S already registered at %s:%d — names must be \
                     unique across the tree"
                    name first.m_file first.m_line;
                advisory = false;
              }
              :: acc)
            acc rest)
    by_name []

let run paths =
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then
        invalid_arg (Printf.sprintf "cmvrp_lint: no such file or directory: %s" p))
    paths;
  let files =
    List.fold_left (fun acc p -> collect_ml acc p) [] paths
    |> List.sort_uniq String.compare
  in
  let diags = ref [] and metric_regs = ref [] in
  let by_root = Hashtbl.create 2 in
  let references root =
    match Hashtbl.find_opt by_root root with
    | Some refs -> refs
    | None ->
        let refs = references root in
        Hashtbl.add by_root root refs;
        refs
  in
  List.iter (lint_one ~diags ~metric_regs ~references) files;
  let all = duplicate_metric_diags !metric_regs @ !diags in
  (List.length files, List.sort compare_diags all)

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)
(* ------------------------------------------------------------------ *)

let json_report ~checked_files diags =
  let blocking, advisories = List.partition (fun d -> not d.advisory) diags in
  Json.Obj
    [
      ("tool", Json.String "cmvrp_lint");
      ("schema_version", Json.Int 1);
      ("checked_files", Json.Int checked_files);
      ("violations", Json.Int (List.length blocking));
      ("advisories", Json.Int (List.length advisories));
      ( "diagnostics",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [
                   ("rule", Json.String d.rule);
                   ("file", Json.String d.file);
                   ("line", Json.Int d.line);
                   ("col", Json.Int d.col);
                   ("message", Json.String d.message);
                   ("advisory", Json.Bool d.advisory);
                 ])
             diags) );
    ]

let pp_diagnostic fmt d =
  Format.fprintf fmt "%s:%d:%d: [%s%s] %s" d.file d.line d.col d.rule
    (if d.advisory then ", advisory" else "")
    d.message
