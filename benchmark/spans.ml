(* Span recorder for the traced run.

   A span is a name, a start and stop time on the monotonic clock, and
   the id of the span that encloses it (or [none]).  Spans live in arrays
   allocated up front, so recording one costs two clock reads and four
   array stores and allocates nothing; once the arrays are full further
   spans are counted in [dropped] and not recorded.  A recorder of
   capacity 0 ([off]) records nothing and never reads the clock, which
   is how the untraced pass runs the same code. *)

type t = {
  name : string array;
  parent : int array;
  start : float array;
  stop : float array;
  mutable len : int;
  mutable dropped : int;
}

let none = -1

let create capacity =
  {
    name = Array.make capacity "";
    parent = Array.make capacity none;
    start = Array.make capacity 0.0;
    stop = Array.make capacity 0.0;
    len = 0;
    dropped = 0;
  }

let off () = create 0

let enter t ~parent name =
  if t.len >= Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    none
  end
  else begin
    let id = t.len in
    t.len <- id + 1;
    t.name.(id) <- name;
    t.parent.(id) <- parent;
    t.start.(id) <- Metrics.now_ns ();
    t.stop.(id) <- t.start.(id);
    id
  end

let leave t id = if id <> none then t.stop.(id) <- Metrics.now_ns ()

let duration t id = t.stop.(id) -. t.start.(id)

(* Self time: the span's duration minus that of its direct children.
   Children nest inside their parent, so the self times of all spans sum
   to the time covered by the outermost ones. *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for id = 0 to t.len - 1 do
    let p = t.parent.(id) in
    if p <> none then self.(p) <- self.(p) -. duration t id
  done;
  self

type summary = { calls : int; total_ns : float }

let empty = { calls = 0; total_ns = 0.0 }

(* Call count and total duration per span name. *)
let summarize t =
  let tbl = Hashtbl.create 16 in
  for id = 0 to t.len - 1 do
    let s = Option.value (Hashtbl.find_opt tbl t.name.(id)) ~default:empty in
    Hashtbl.replace tbl t.name.(id)
      { calls = s.calls + 1; total_ns = s.total_ns +. duration t id }
  done;
  tbl

let summary tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:empty

(* Mean duration of the spans with this name, 0 when there are none. *)
let mean_ns tbl name =
  let s = summary tbl name in
  if s.calls = 0 then 0.0 else s.total_ns /. float_of_int s.calls

let total_self t = Array.fold_left ( +. ) 0.0 (self_times t)

(* Durations of every span with this name, in recording order. *)
let durations t name =
  let acc = ref [] in
  for id = t.len - 1 downto 0 do
    if String.equal t.name.(id) name then acc := duration t id :: !acc
  done;
  Array.of_list !acc

(* Chrome trace-event JSON (complete "X" events, microseconds from the
   first span); chrome://tracing and ui.perfetto.dev both load it and
   nest spans by time containment.  The parent id is kept in [args]. *)
let write_chrome t path =
  let origin = if t.len = 0 then 0.0 else t.start.(0) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
      for id = 0 to t.len - 1 do
        if id > 0 then output_string oc ",\n";
        Printf.fprintf oc
          "{\"name\":%S,\"cat\":\"cmvrp\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
          t.name.(id)
          ((t.start.(id) -. origin) /. 1e3)
          (duration t id /. 1e3)
          id t.parent.(id)
      done;
      output_string oc "]}\n")
