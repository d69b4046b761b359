let m_messages_sent = Metrics.counter "des.messages_sent"
let m_events_dispatched = Metrics.counter "des.events_dispatched"
let m_queue_depth = Metrics.gauge "des.queue_depth"
let m_dropped = Metrics.counter "des.messages_dropped"
let m_duplicated = Metrics.counter "des.messages_duplicated"
let m_spikes = Metrics.counter "des.delay_spikes"
let m_livelocks = Metrics.counter "des.livelocks"
let m_cascades = Metrics.counter "des.wheel_cascades"
let m_prunes = Metrics.counter "des.channel_prunes"

(* --- channel fault model --- *)

type faults = {
  drop_p : float;
  dup_p : float;
  spike_p : float;
  spike_delay : float;
}

let reliable = { drop_p = 0.0; dup_p = 0.0; spike_p = 0.0; spike_delay = 0.0 }

let faults ?(drop_p = 0.0) ?(dup_p = 0.0) ?(spike_p = 0.0) ?(spike_delay = 10.0)
    () =
  let prob name p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Des.faults: %s must be in [0,1]" name)
  in
  prob "drop_p" drop_p;
  prob "dup_p" dup_p;
  prob "spike_p" spike_p;
  if not (spike_delay >= 0.0) then
    invalid_arg "Des.faults: spike_delay must be non-negative";
  { drop_p; dup_p; spike_p; spike_delay }

(* A fault profile counts as "no override" when it matches the default
   field for field.  Explicit comparison: the lint tree bans polymorphic
   equality on records with floats. *)
let faults_equal a b =
  Float.equal a.drop_p b.drop_p
  && Float.equal a.dup_p b.dup_p
  && Float.equal a.spike_p b.spike_p
  && Float.equal a.spike_delay b.spike_delay

(* Restarts ride the same queue as messages so that a crash window has a
   well-defined place on the simulated timeline. *)
type 'msg payload = Deliver of 'msg | Restart of int

type outcome = Quiescent | Livelock of { dispatched : int; pending : int }

type 'msg step = { at : float; src : int; dst : int; msg : 'msg }

(* --- hierarchical time wheel ---

   Pending events live in a struct-of-arrays arena (parallel flat arrays
   indexed by a recycled event id) instead of one boxed record per event:
   at 10^6-vehicle scale the queue holds hundreds of thousands of events
   and the arena keeps them in a handful of contiguous arrays the GC
   never walks element by element.

   Scheduling is a 4-level hashed timing wheel over time quanta
   [q = floor(time / tick)], 256 slots per level (8 bits), so an event
   lands [O(1)] at the lowest level whose span still covers its quantum;
   events beyond the 2^32-quantum horizon chain into an overflow list
   that is rebased lazily.  Dispatch pulls the events of the cursor's
   quantum into a small binary heap ordered by [(time, seq)] — the exact
   comparator of the old global heap — and advancing the cursor cascades
   one higher-level slot down a level (lazy re-bucketing, counted by
   ["des.wheel_cascades"]).

   Dispatch order is bit-identical to the old comparison heap: the
   quantization is monotone (q a < q b implies time a < time b, because
   time/tick lands in [q, q+1)), every event enqueued during a dispatch
   has time >= clock and therefore quantum >= the cursor, and equal-time
   events always share a quantum where the mini-heap applies the
   [(time, seq)] tie-break.  See docs/SCALE.md for the full argument. *)

let wheel_bits = 8
let wheel_slots = 256 (* 1 lsl wheel_bits *)
let wheel_mask = wheel_slots - 1
let wheel_levels = 4
let nil = -1

(* Event ids pack [weak | src | dst] into one word: bit 0 is the weak
   flag, bits 1..30 the destination, bits 31..60 the source.  Process
   ids must fit 30 bits — a billion processes, far above the 10^6-vehicle
   target. *)
let max_id = (1 lsl 30) - 1

let pack ~weak ~src ~dst =
  (src lsl 31) lor (dst lsl 1) lor (if weak then 1 else 0)

let pack_weak p = p land 1 = 1
let pack_dst p = (p lsr 1) land max_id
let pack_src p = p lsr 31

type 'msg t = {
  rng : Rng.t;
  min_delay : float;
  max_delay : float;
  tick : float; (* wheel quantum, in simulated time units *)
  (* arena *)
  mutable ev_time : float array;
  mutable ev_seq : int array;
  mutable ev_pack : int array;
  mutable ev_payload : 'msg payload array;
  mutable ev_next : int array; (* slot chain / free list *)
  mutable ev_room : int;
  mutable free_head : int;
  mutable filler : 'msg payload option; (* recycled-slot placeholder *)
  (* wheel *)
  slots : int array; (* wheel_levels * wheel_slots chain heads *)
  level_count : int array;
  mutable overflow_head : int;
  mutable overflow_count : int;
  mutable cur_q : int; (* quantum cursor *)
  (* current-quantum mini-heap, ordered by (time, seq) *)
  mutable hp : int array;
  mutable hp_n : int;
  mutable total_pending : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable delivered : int;
  mutable queue_peak : int;
  (* Last scheduled delivery time per channel, to enforce FIFO order on
     top of random delays.  Entries whose floor is already behind the
     clock are pruned periodically — see [maybe_prune]. *)
  channel_front : (int * int, float) Hashtbl.t;
  mutable prune_limit : int;
  (* Fault model: a process-wide default profile, per-channel overrides,
     symmetric link partitions and crashed nodes. *)
  mutable default_faults : faults;
  channel_faults : (int * int, faults) Hashtbl.t;
  partitions : (int * int, unit) Hashtbl.t;
  down : (int, unit) Hashtbl.t;
  mutable restart_hook : time:float -> int -> unit;
  mutable dropped : int;
  mutable duplicated : int;
  (* Number of non-weak pending events; quiescence ignores weak
     (background/keepalive) events when the client's [idle_ok] allows. *)
  mutable strong_pending : int;
  (* Rolling FNV-style checksum over dispatched (time, src, dst) triples:
     two runs with the same seed and fault config must agree bit for bit. *)
  mutable digest : int;
  mutable trace_on : bool;
  mutable trace_rev : 'msg step list;
}

let create ?(min_delay = 0.1) ?(max_delay = 1.0) ?(faults = reliable) ~rng () =
  if min_delay < 0.0 || max_delay < min_delay then
    invalid_arg "Des.create: bad delay bounds";
  {
    rng;
    min_delay;
    max_delay;
    (* Eight quanta per max delay keeps the common send horizon within a
       few level-0 slots; long timers land one level up. *)
    tick = Float.max (max_delay /. 8.0) 1e-6;
    ev_time = [||];
    ev_seq = [||];
    ev_pack = [||];
    ev_payload = [||];
    ev_next = [||];
    ev_room = 0;
    free_head = nil;
    filler = None;
    slots = Array.make (wheel_levels * wheel_slots) nil;
    level_count = Array.make wheel_levels 0;
    overflow_head = nil;
    overflow_count = 0;
    cur_q = 0;
    hp = Array.make 16 nil;
    hp_n = 0;
    total_pending = 0;
    clock = 0.0;
    next_seq = 0;
    delivered = 0;
    queue_peak = 0;
    channel_front = Hashtbl.create 64;
    prune_limit = 512;
    default_faults = faults;
    channel_faults = Hashtbl.create 8;
    partitions = Hashtbl.create 8;
    down = Hashtbl.create 8;
    restart_hook = (fun ~time:_ _ -> ());
    dropped = 0;
    duplicated = 0;
    strong_pending = 0;
    digest = 0x1505;
    trace_on = false;
    trace_rev = [];
  }

let now t = t.clock

let set_faults t f = t.default_faults <- f

(* Setting a channel's profile back to the (current) default removes the
   override, so healed channels stop occupying metadata — the other half
   of the bound [maybe_prune] maintains on [channel_front]. *)
let set_channel_faults t ~src ~dst f =
  if faults_equal f t.default_faults then
    Hashtbl.remove t.channel_faults (src, dst)
  else Hashtbl.replace t.channel_faults (src, dst) f

let norm_pair a b = if a <= b then (a, b) else (b, a)

let partition t a b = if a <> b then Hashtbl.replace t.partitions (norm_pair a b) ()
let heal t a b = Hashtbl.remove t.partitions (norm_pair a b)
let partitioned t a b = Hashtbl.mem t.partitions (norm_pair a b)

let crash t node = Hashtbl.replace t.down node ()
let is_down t node = Hashtbl.mem t.down node
let set_restart_hook t hook = t.restart_hook <- hook

let restart t node =
  if Hashtbl.mem t.down node then begin
    Hashtbl.remove t.down node;
    t.restart_hook ~time:t.clock node
  end

(* The ["des.queue_depth"] gauge reports the strong-pending count — the
   events that keep [run_until_quiescent] running — and is written from
   both the schedule and the dispatch path, so it reads 0 after a drain
   even while weak keepalives stay queued.  [queue_peak] tracks the
   total queue (weak included): the memory high-water mark. *)
let note_depth t =
  if t.total_pending > t.queue_peak then t.queue_peak <- t.total_pending;
  Metrics.set_gauge m_queue_depth (float_of_int t.strong_pending)

(* --- arena --- *)

let grow_arena t (payload : 'msg payload) =
  let room = if t.ev_room = 0 then 256 else 2 * t.ev_room in
  let fill =
    match t.filler with
    | Some f -> f
    | None ->
        t.filler <- Some payload;
        payload
  in
  let copy mk old =
    let a = mk room in
    Array.blit old 0 a 0 t.ev_room;
    a
  in
  t.ev_time <- copy (fun n -> Array.make n 0.0) t.ev_time;
  t.ev_seq <- copy (fun n -> Array.make n 0) t.ev_seq;
  t.ev_pack <- copy (fun n -> Array.make n 0) t.ev_pack;
  t.ev_payload <- copy (fun n -> Array.make n fill) t.ev_payload;
  t.ev_next <- copy (fun n -> Array.make n nil) t.ev_next;
  for i = t.ev_room to room - 1 do
    t.ev_next.(i) <- (if i = room - 1 then t.free_head else i + 1)
  done;
  t.free_head <- t.ev_room;
  t.ev_room <- room

let alloc_event t ~time ~seq ~pack ~payload =
  if t.free_head = nil then grow_arena t payload;
  let idx = t.free_head in
  t.free_head <- t.ev_next.(idx);
  t.ev_time.(idx) <- time;
  t.ev_seq.(idx) <- seq;
  t.ev_pack.(idx) <- pack;
  t.ev_payload.(idx) <- payload;
  t.ev_next.(idx) <- nil;
  idx

let free_event t idx =
  (match t.filler with
  | Some f -> t.ev_payload.(idx) <- f
  | None -> ());
  t.ev_next.(idx) <- t.free_head;
  t.free_head <- idx

(* --- current-quantum mini-heap, keyed (time, seq) --- *)

let ev_before t a b =
  let ta = t.ev_time.(a) and tb = t.ev_time.(b) in
  if ta < tb then true
  else if ta > tb then false
  else t.ev_seq.(a) < t.ev_seq.(b)

let heap_push t idx =
  if t.hp_n = Array.length t.hp then begin
    let bigger = Array.make (2 * t.hp_n) nil in
    Array.blit t.hp 0 bigger 0 t.hp_n;
    t.hp <- bigger
  end;
  let i = ref t.hp_n in
  t.hp_n <- t.hp_n + 1;
  t.hp.(!i) <- idx;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if ev_before t t.hp.(!i) t.hp.(p) then begin
      let tmp = t.hp.(p) in
      t.hp.(p) <- t.hp.(!i);
      t.hp.(!i) <- tmp;
      i := p
    end
    else continue := false
  done

let heap_pop t =
  let top = t.hp.(0) in
  t.hp_n <- t.hp_n - 1;
  if t.hp_n > 0 then begin
    t.hp.(0) <- t.hp.(t.hp_n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < t.hp_n && ev_before t t.hp.(l) t.hp.(!s) then s := l;
      if r < t.hp_n && ev_before t t.hp.(r) t.hp.(!s) then s := r;
      if !s <> !i then begin
        let tmp = t.hp.(!s) in
        t.hp.(!s) <- t.hp.(!i);
        t.hp.(!i) <- tmp;
        i := !s
      end
      else continue := false
    done
  end;
  top

(* --- wheel placement and cascade --- *)

let quantum t time = int_of_float (time /. t.tick)

(* Lowest level whose span still covers [q] relative to the cursor; the
   event either joins the current quantum's heap, a wheel slot, or the
   overflow chain past the 2^32-quantum horizon. *)
let place t idx q =
  if q <= t.cur_q then heap_push t idx
  else begin
    let d = q lxor t.cur_q in
    if d lsr wheel_bits = 0 then begin
      let s = q land wheel_mask in
      t.ev_next.(idx) <- t.slots.(s);
      t.slots.(s) <- idx;
      t.level_count.(0) <- t.level_count.(0) + 1
    end
    else if d lsr (2 * wheel_bits) = 0 then begin
      let s = wheel_slots + ((q lsr wheel_bits) land wheel_mask) in
      t.ev_next.(idx) <- t.slots.(s);
      t.slots.(s) <- idx;
      t.level_count.(1) <- t.level_count.(1) + 1
    end
    else if d lsr (3 * wheel_bits) = 0 then begin
      let s = (2 * wheel_slots) + ((q lsr (2 * wheel_bits)) land wheel_mask) in
      t.ev_next.(idx) <- t.slots.(s);
      t.slots.(s) <- idx;
      t.level_count.(2) <- t.level_count.(2) + 1
    end
    else if d lsr (4 * wheel_bits) = 0 then begin
      let s = (3 * wheel_slots) + ((q lsr (3 * wheel_bits)) land wheel_mask) in
      t.ev_next.(idx) <- t.slots.(s);
      t.slots.(s) <- idx;
      t.level_count.(3) <- t.level_count.(3) + 1
    end
    else begin
      t.ev_next.(idx) <- t.overflow_head;
      t.overflow_head <- idx;
      t.overflow_count <- t.overflow_count + 1
    end
  end

(* Redistribute one slot chain against the (just advanced) cursor. *)
let redistribute t head =
  let cur = ref head in
  while !cur <> nil do
    let next = t.ev_next.(!cur) in
    place t !cur (quantum t t.ev_time.(!cur));
    cur := next
  done

(* All four levels are empty: jump the cursor to the earliest overflow
   quantum and re-place the whole chain.  Amortized O(1): each event
   overflows at most once per 2^32-quantum horizon. *)
let rebase_overflow t =
  let qmin = ref max_int in
  let cur = ref t.overflow_head in
  while !cur <> nil do
    let q = quantum t t.ev_time.(!cur) in
    if q < !qmin then qmin := q;
    cur := t.ev_next.(!cur)
  done;
  let head = t.overflow_head in
  t.overflow_head <- nil;
  t.overflow_count <- 0;
  t.cur_q <- !qmin;
  Metrics.incr m_cascades;
  redistribute t head

(* Advance the cursor to the next non-empty quantum and pull its events
   into the mini-heap.  Levels are scanned bottom-up; finding work at
   level l >= 1 re-buckets that one slot into the levels below (the lazy
   cascade). *)
let rec refill t =
  if t.hp_n > 0 then ()
  else if
    t.level_count.(0) = 0
    && t.level_count.(1) = 0
    && t.level_count.(2) = 0
    && t.level_count.(3) = 0
  then begin
    if t.overflow_count > 0 then begin
      rebase_overflow t;
      refill t
    end
  end
  else begin
    let advanced = ref false in
    let level = ref 0 in
    while (not !advanced) && !level < wheel_levels do
      let l = !level in
      if t.level_count.(l) > 0 then begin
        let shift = l * wheel_bits in
        let s = ref (((t.cur_q lsr shift) land wheel_mask) + 1) in
        while (not !advanced) && !s < wheel_slots do
          let slot = (l * wheel_slots) + !s in
          if t.slots.(slot) <> nil then begin
            let head = t.slots.(slot) in
            t.slots.(slot) <- nil;
            let k = ref 0 in
            let cur = ref head in
            while !cur <> nil do
              incr k;
              cur := t.ev_next.(!cur)
            done;
            t.level_count.(l) <- t.level_count.(l) - !k;
            (* Align the cursor: keep the bits above this level, replace
               this level's index, zero everything below. *)
            let high = t.cur_q lsr (shift + wheel_bits) in
            t.cur_q <- ((high lsl wheel_bits) lor !s) lsl shift;
            if l > 0 then Metrics.incr m_cascades;
            redistribute t head;
            advanced := true
          end
          else incr s
        done;
        if not !advanced then incr level
      end
      else incr level
    done;
    if !advanced then begin
      (* A cascaded slot may land entirely in lower wheel levels rather
         than the current quantum; keep advancing until the heap has the
         next event. *)
      if t.hp_n = 0 then refill t
    end
    else if t.overflow_count > 0 then begin
      rebase_overflow t;
      refill t
    end
    else failwith "Des: wheel invariant violated (counted events not found)"
  end

(* --- channel metadata pruning --- *)

(* A [channel_front] entry whose floor is at or behind the clock can
   never bump a future enqueue (every new delivery time is >= clock), so
   dropping it is invisible to the schedule.  Swept when the table
   doubles past the last high-water mark: amortized O(1) per enqueue,
   deterministic (no randomness involved), and it bounds the metadata of
   workloads that touch many distinct channels once. *)
let maybe_prune t =
  if Hashtbl.length t.channel_front > t.prune_limit then begin
    let stale = ref [] in
    Hashtbl.iter
      (fun key front ->
        if front +. 1e-9 <= t.clock then stale := key :: !stale)
      t.channel_front;
    List.iter (Hashtbl.remove t.channel_front) !stale;
    Metrics.add m_prunes (List.length !stale);
    t.prune_limit <- max 512 (2 * Hashtbl.length t.channel_front)
  end

(* Raw enqueue: FIFO floor per channel, no fault pipeline. *)
let enqueue t ~weak ~time ~src ~dst payload =
  if src < 0 || src > max_id || dst < 0 || dst > max_id then
    invalid_arg "Des: process ids must fit 30 bits";
  maybe_prune t;
  let key = (src, dst) in
  let floor_time =
    match Hashtbl.find_opt t.channel_front key with
    | None -> time
    | Some front -> Float.max time (front +. 1e-9)
  in
  Hashtbl.replace t.channel_front key floor_time;
  let idx =
    alloc_event t ~time:floor_time ~seq:t.next_seq ~pack:(pack ~weak ~src ~dst)
      ~payload
  in
  t.next_seq <- t.next_seq + 1;
  place t idx (quantum t floor_time);
  t.total_pending <- t.total_pending + 1;
  if not weak then t.strong_pending <- t.strong_pending + 1;
  note_depth t

let drop t =
  t.dropped <- t.dropped + 1;
  Metrics.incr m_dropped

let profile t ~src ~dst =
  match Hashtbl.find_opt t.channel_faults (src, dst) with
  | Some f -> f
  | None -> t.default_faults

(* The fault pipeline.  Self-channels (src = dst) model local timers and
   are exempt from every fault: a process's own clock does not lose
   ticks.  Crashed endpoints and partitioned links swallow the message;
   otherwise the channel profile may drop it, spike its delay, or deliver
   a duplicate copy (scheduled after the original, so FIFO still holds). *)
let schedule t ~weak ~time ~src ~dst msg =
  Metrics.incr m_messages_sent;
  if src = dst then begin
    if Hashtbl.mem t.down dst then drop t
    else enqueue t ~weak ~time ~src ~dst (Deliver msg)
  end
  else if
    Hashtbl.mem t.down src || Hashtbl.mem t.down dst || partitioned t src dst
  then drop t
  else begin
    let f = profile t ~src ~dst in
    if f.drop_p > 0.0 && Rng.float t.rng 1.0 < f.drop_p then drop t
    else begin
      let time =
        if f.spike_p > 0.0 && Rng.float t.rng 1.0 < f.spike_p then begin
          Metrics.incr m_spikes;
          time +. f.spike_delay
        end
        else time
      in
      enqueue t ~weak ~time ~src ~dst (Deliver msg);
      if f.dup_p > 0.0 && Rng.float t.rng 1.0 < f.dup_p then begin
        t.duplicated <- t.duplicated + 1;
        Metrics.incr m_duplicated;
        enqueue t ~weak ~time ~src ~dst (Deliver msg)
      end
    end
  end

let send_after ?(weak = false) t ~delay ~src ~dst payload =
  if delay < 0.0 then invalid_arg "Des.send_after: negative delay";
  let jitter = t.min_delay +. Rng.float t.rng (t.max_delay -. t.min_delay) in
  schedule t ~weak ~time:(t.clock +. delay +. jitter) ~src ~dst payload

let send ?weak t ~src ~dst payload = send_after ?weak t ~delay:0.0 ~src ~dst payload

let restart_after t ~delay node =
  if delay < 0.0 then invalid_arg "Des.restart_after: negative delay";
  enqueue t ~weak:false ~time:(t.clock +. delay) ~src:node ~dst:node
    (Restart node)

let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h land max_int

let record t ~time ~src ~dst msg =
  t.digest <-
    mix (mix (mix t.digest (Int64.to_int (Int64.bits_of_float time) land max_int)) src) dst;
  if t.trace_on then t.trace_rev <- { at = time; src; dst; msg } :: t.trace_rev

(* Pop the globally earliest (time, seq) event, or [nil]. *)
let pop_event t =
  if t.hp_n = 0 then refill t;
  if t.hp_n = 0 then nil
  else begin
    let idx = heap_pop t in
    t.total_pending <- t.total_pending - 1;
    if not (pack_weak t.ev_pack.(idx)) then
      t.strong_pending <- t.strong_pending - 1;
    note_depth t;
    idx
  end

(* Deliver one popped event through the crash filter and the handler;
   frees the arena slot. *)
let dispatch_event t ~handler idx =
  t.clock <- Float.max t.clock t.ev_time.(idx);
  let p = t.ev_pack.(idx) in
  let src = pack_src p and dst = pack_dst p in
  let payload = t.ev_payload.(idx) in
  free_event t idx;
  match payload with
  | Restart node -> restart t node
  | Deliver msg ->
      if Hashtbl.mem t.down dst then drop t
      else begin
        t.delivered <- t.delivered + 1;
        Metrics.incr m_events_dispatched;
        record t ~time:t.clock ~src ~dst msg;
        handler ~time:t.clock ~src ~dst msg
      end

let run_until_quiescent ?(budget = max_int) ?(idle_ok = fun () -> true) t
    ~handler =
  if budget <= 0 then invalid_arg "Des.run_until_quiescent: budget must be positive";
  let popped = ref 0 in
  let rec drain () =
    if t.strong_pending = 0 && (t.total_pending = 0 || idle_ok ()) then
      Quiescent
    else if !popped >= budget then begin
      Metrics.incr m_livelocks;
      Livelock { dispatched = !popped; pending = t.total_pending }
    end
    else begin
      let idx = pop_event t in
      if idx = nil then Quiescent
      else begin
        incr popped;
        dispatch_event t ~handler idx;
        drain ()
      end
    end
  in
  drain ()

let pending t = t.total_pending

let messages_delivered t = t.delivered

let queue_peak t = t.queue_peak

let drops t = t.dropped

let dups t = t.duplicated

let digest t = t.digest

let channel_meta_size t =
  Hashtbl.length t.channel_front + Hashtbl.length t.channel_faults

(* Heap words reachable from the simulator, with the client-supplied
   restart hook detached for the measurement so a closure capturing the
   whole protocol world is not billed to the queue.  Feeds the
   ["des.bytes_per_vehicle"] gauge at fleet scale. *)
let footprint_bytes t =
  let hook = t.restart_hook in
  t.restart_hook <- (fun ~time:_ _ -> ());
  let words = Obj.reachable_words (Obj.repr t) in
  t.restart_hook <- hook;
  words * (Sys.word_size / 8)

let set_trace t on =
  t.trace_on <- on;
  if not on then t.trace_rev <- []

let trace t = List.rev t.trace_rev

let replay steps ~handler =
  List.iter (fun s -> handler ~time:s.at ~src:s.src ~dst:s.dst s.msg) steps
