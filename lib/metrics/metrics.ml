(* Domain-safety: counters are Atomic cells (lock-free increments on the
   hot path), while gauges, timers and the registry itself are guarded by
   one mutex — their mutation sites are orders of magnitude colder than
   counter increments, so a lock there costs nothing measurable.  This
   module and lib/prelude/pool.ml are the only places allowed to touch
   Atomic/Mutex (cmvrp_lint rule [domain-confine]). *)

type counter = int Atomic.t
type gauge = { mutable g : float; mutable g_peak : float }
type timer = { mutable ns : float; mutable calls : int }

(* Histograms share one fixed geometric bucket family: upper bounds
   1µs·2^i (ns) for i = 0..25, plus an overflow slot at the end of
   [h_counts].  Fixed buckets keep every snapshot a few dozen ints and
   make any two histograms (or two revisions of one) comparable. *)
type histogram = { h_counts : int array; mutable h_sum : float; mutable h_count : int }

type cell = C of counter | G of gauge | T of timer | H of histogram

let n_bounds = 26
let bucket_bound i = 1_000.0 *. Float.of_int (1 lsl i)

(* Finite stand-in bound reported for the overflow bucket (~11.6 days in
   ns): quantiles and JSON stay finite floats. *)
let overflow_bound = 1e15

let registry : (string, cell) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register name make project describe =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some cell -> (
          match project cell with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S already registered as a %s" name
                   (describe cell)))
      | None ->
          let v = make () in
          Hashtbl.replace registry name v;
          (match project v with Some v -> v | None -> assert false))

let describe = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | T _ -> "timer"
  | H _ -> "histogram"

let counter name =
  register name
    (fun () -> C (Atomic.make 0))
    (function C c -> Some c | _ -> None)
    describe

let gauge name =
  register name
    (fun () -> G { g = 0.0; g_peak = 0.0 })
    (function G g -> Some g | _ -> None)
    describe

let timer name =
  register name
    (fun () -> T { ns = 0.0; calls = 0 })
    (function T t -> Some t | _ -> None)
    describe

let histogram name =
  register name
    (fun () -> H { h_counts = Array.make (n_bounds + 1) 0; h_sum = 0.0; h_count = 0 })
    (function H h -> Some h | _ -> None)
    describe

(* Counter updates are atomic fetch-and-adds and stay lock-free under
   Pool fan-out. *)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let count c = Atomic.get c

let set_gauge g v =
  locked (fun () ->
      g.g <- v;
      if v > g.g_peak then g.g_peak <- v)

let gauge_value g = g.g
let gauge_peak g = g.g_peak

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let add_ns t dt =
  locked (fun () ->
      t.ns <- t.ns +. dt;
      t.calls <- t.calls + 1)

let time t f =
  let t0 = Monotonic_clock.now () in
  Fun.protect
    ~finally:(fun () ->
      add_ns t (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)))
    f

let timer_ns t = t.ns
let timer_calls t = t.calls

let bucket_of v =
  let rec go i = if i >= n_bounds || v <= bucket_bound i then i else go (i + 1) in
  go 0

let observe h v =
  locked (fun () ->
      let i = bucket_of v in
      h.h_counts.(i) <- h.h_counts.(i) + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1)

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum

let histogram_quantile h q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Metrics.histogram_quantile: quantile outside [0, 1]";
  if h.h_count = 0 then Float.nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count))) in
    let rec go i acc =
      let acc = acc + h.h_counts.(i) in
      if acc >= rank || i = n_bounds then
        if i = n_bounds then overflow_bound else bucket_bound i
      else go (i + 1) acc
    in
    go 0 0
  end

(* --- registry-wide views --- *)

type sample =
  | Count of int
  | Level of { value : float; peak : float }
  | Span of { ns : float; calls : int }
  | Dist of { count : int; sum : float; buckets : (float * int) list }

let sample_of_cell = function
  | C c -> Count (Atomic.get c)
  | G g -> Level { value = g.g; peak = g.g_peak }
  | T t -> Span { ns = t.ns; calls = t.calls }
  | H h ->
      let buckets = ref [] in
      for i = n_bounds downto 0 do
        if h.h_counts.(i) > 0 then
          let bound = if i = n_bounds then overflow_bound else bucket_bound i in
          buckets := (bound, h.h_counts.(i)) :: !buckets
      done;
      Dist { count = h.h_count; sum = h.h_sum; buckets = !buckets }

let snapshot () =
  locked (fun () ->
      Hashtbl.fold
        (fun name cell acc -> (name, sample_of_cell cell) :: acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sample name =
  locked (fun () -> Option.map sample_of_cell (Hashtbl.find_opt registry name))

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ cell ->
          match cell with
          | C c -> Atomic.set c 0
          | G g ->
              g.g <- 0.0;
              g.g_peak <- 0.0
          | T t ->
              t.ns <- 0.0;
              t.calls <- 0
          | H h ->
              Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
              h.h_sum <- 0.0;
              h.h_count <- 0)
        registry)

let json_of_sample = function
  | Count n -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int n) ]
  | Level { value; peak } ->
      Json.Obj
        [
          ("type", Json.String "gauge");
          ("value", Json.Float value);
          ("peak", Json.Float peak);
        ]
  | Span { ns; calls } ->
      Json.Obj
        [
          ("type", Json.String "timer");
          ("ns", Json.Float ns);
          ("calls", Json.Int calls);
        ]
  | Dist { count; sum; buckets } ->
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int count);
          ("sum", Json.Float sum);
          ( "buckets",
            Json.List
              (List.map
                 (fun (bound, n) -> Json.List [ Json.Float bound; Json.Int n ])
                 buckets) );
        ]

let sample_of_json j =
  match Json.member "type" j with
  | Some (Json.String "counter") -> (
      match Option.bind (Json.member "value" j) Json.to_int_opt with
      | Some n -> Ok (Count n)
      | None -> Error "counter sample without integer \"value\"")
  | Some (Json.String "gauge") -> (
      match
        ( Option.bind (Json.member "value" j) Json.to_float_opt,
          Option.bind (Json.member "peak" j) Json.to_float_opt )
      with
      | Some value, Some peak -> Ok (Level { value; peak })
      | _ -> Error "gauge sample without numeric \"value\"/\"peak\"")
  | Some (Json.String "timer") -> (
      match
        ( Option.bind (Json.member "ns" j) Json.to_float_opt,
          Option.bind (Json.member "calls" j) Json.to_int_opt )
      with
      | Some ns, Some calls -> Ok (Span { ns; calls })
      | _ -> Error "timer sample without \"ns\"/\"calls\"")
  | Some (Json.String "histogram") -> (
      let bucket = function
        | Json.List [ b; n ] -> (
            match (Json.to_float_opt b, Json.to_int_opt n) with
            | Some b, Some n -> Some (b, n)
            | _ -> None)
        | _ -> None
      in
      match
        ( Option.bind (Json.member "count" j) Json.to_int_opt,
          Option.bind (Json.member "sum" j) Json.to_float_opt,
          Option.bind (Json.member "buckets" j) Json.to_list_opt )
      with
      | Some count, Some sum, Some raw -> (
          let buckets = List.filter_map bucket raw in
          if List.length buckets = List.length raw then
            Ok (Dist { count; sum; buckets })
          else Error "histogram bucket is not a [bound, count] pair")
      | _ -> Error "histogram sample without \"count\"/\"sum\"/\"buckets\"")
  | _ -> Error "sample without a known \"type\""

let json_of_snapshot snap =
  Json.Obj (List.map (fun (name, s) -> (name, json_of_sample s)) snap)
