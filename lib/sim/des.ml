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
  if not (spike_delay >= 0.0 && Float.is_finite spike_delay) then
    invalid_arg "Des.faults: spike_delay must be finite and non-negative";
  { drop_p; dup_p; spike_p; spike_delay }

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

(* Event ids pack [src | dst | restart | weak] into one word: bit 0 is
   the weak flag, bit 1 marks a scheduled restart (which carries no
   message), bits 2..31 the destination, bits 32..61 the source.  Process
   ids must fit 30 bits — a billion processes, far above the
   10^6-vehicle target. *)
let max_id = (1 lsl 30) - 1
let weak_bit = 1
let restart_bit = 2

let[@inline] pack ~src ~dst flags = (src lsl 32) lor (dst lsl 2) lor flags
let[@inline] pack_dst p = (p lsr 2) land max_id
let[@inline] pack_src p = p lsr 32

(* A directed channel as one int, for the FIFO-floor table; partitions
   key the normalised (low, high) pair the same way. *)
let[@inline] channel_id src dst = (src lsl 30) lor dst

let[@inline] check_id fn id =
  if id < 0 || id > max_id then
    invalid_arg (fn ^ ": process ids must fit 30 bits")

type 'msg t = {
  rng : Rng.t;
  min_delay : float;
  delay_span : float; (* max_delay - min_delay, boxed once for [Rng.float] *)
  tick : float; (* wheel quantum, in simulated time units *)
  (* arena *)
  mutable ev_time : float array;
  mutable ev_seq : int array;
  mutable ev_pack : int array;
  mutable ev_msg : 'msg array; (* grown on demand: restarts carry no message *)
  mutable ev_next : int array; (* slot chain / free list *)
  mutable ev_room : int;
  mutable free_head : int;
  mutable filler : 'msg option; (* recycled-slot placeholder *)
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
  mutable queue_peak : int;
  (* Last scheduled delivery time per channel, to enforce FIFO order on
     top of random delays: an open-addressing table (linear probing, at
     most half full) from channel id to floor.  Entries whose floor is
     already behind the clock are pruned periodically — see [prune]. *)
  mutable ch_key : int array; (* channel id, or [nil] for a free slot *)
  mutable ch_floor : float array;
  mutable ch_count : int;
  mutable prune_limit : int;
  (* Fault model: one profile for every channel, symmetric link
     partitions and a bitmap of crashed nodes.  The send path tests the
     partition table's emptiness before hashing into it. *)
  profile : faults;
  partitions : (int, unit) Hashtbl.t;
  mutable down : Bytes.t;
  (* Process -> [next_seq] at its latest crash.  A self event queued
     before it is a timer of the crashed incarnation, and is dropped
     however late it comes due.  Crashes are rare: a table, not an array
     sized by the fleet. *)
  crashed_at : (int, int) Hashtbl.t;
  mutable restart_hook : time:float -> int -> unit;
  (* Number of non-weak pending events; quiescence ignores weak
     (background/keepalive) events when the client's [idle_ok] allows. *)
  mutable strong_pending : int;
  mutable strong_peak : int;
  (* Event counts since creation.  A simulator lives on one domain, so
     these are plain fields; [publish] adds them to the process-wide
     Metrics registry once per drain, and [published] holds the totals
     it has already added. *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable spikes : int;
  mutable cascades : int;
  mutable prunes : int;
  published : int array;
  (* Rolling FNV-style checksum over dispatched (time, src, dst) triples:
     two runs with the same seed and fault config must agree bit for bit. *)
  mutable digest : int;
  mutable trace_on : bool;
  mutable trace_rev : 'msg step list;
}

let create ?(min_delay = 0.1) ?(max_delay = 1.0) ?(faults = reliable) ~rng () =
  if
    (not (Float.is_finite min_delay && Float.is_finite max_delay))
    || min_delay < 0.0 || max_delay < min_delay
  then invalid_arg "Des.create: bad delay bounds";
  {
    rng;
    min_delay;
    delay_span = max_delay -. min_delay;
    (* Eight quanta per max delay keeps the common send horizon within a
       few level-0 slots; long timers land one level up. *)
    tick = Float.max (max_delay /. 8.0) 1e-6;
    ev_time = [||];
    ev_seq = [||];
    ev_pack = [||];
    ev_msg = [||];
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
    queue_peak = 0;
    ch_key = Array.make 64 nil;
    ch_floor = Array.make 64 0.0;
    ch_count = 0;
    prune_limit = 512;
    profile = faults;
    partitions = Hashtbl.create 8;
    down = Bytes.empty;
    crashed_at = Hashtbl.create 8;
    restart_hook = (fun ~time:_ _ -> ());
    strong_pending = 0;
    strong_peak = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    spikes = 0;
    cascades = 0;
    prunes = 0;
    published = Array.make 7 0;
    digest = 0x1505;
    trace_on = false;
    trace_rev = [];
  }

let now t = t.clock

let link_id a b = if a <= b then channel_id a b else channel_id b a

let partition t a b =
  check_id "Des.partition" a;
  check_id "Des.partition" b;
  if a <> b then Hashtbl.replace t.partitions (link_id a b) ()

let[@inline] partitioned t a b =
  Hashtbl.length t.partitions > 0 && Hashtbl.mem t.partitions (link_id a b)

(* Out-of-range ids are never down: [lsr] maps a negative id past the
   bitmap, and the enqueue path rejects it afterwards. *)
let[@inline] is_down t node =
  let byte = node lsr 3 in
  byte < Bytes.length t.down
  && Bytes.get_uint8 t.down byte land (1 lsl (node land 7)) <> 0

let set_down t node down =
  let byte = node lsr 3 and bit = 1 lsl (node land 7) in
  let b = Bytes.get_uint8 t.down byte in
  Bytes.set_uint8 t.down byte (if down then b lor bit else b land lnot bit)

let crash t node =
  check_id "Des.crash" node;
  let byte = node lsr 3 in
  if byte >= Bytes.length t.down then begin
    let grown = Bytes.make (max (byte + 1) (2 * Bytes.length t.down)) '\000' in
    Bytes.blit t.down 0 grown 0 (Bytes.length t.down);
    t.down <- grown
  end;
  set_down t node true;
  Hashtbl.replace t.crashed_at node t.next_seq

let set_restart_hook t hook = t.restart_hook <- hook

let restart t node =
  if is_down t node then begin
    set_down t node false;
    t.restart_hook ~time:t.clock node
  end

(* --- arena --- *)

let grow_arena t =
  let room = if t.ev_room = 0 then 256 else 2 * t.ev_room in
  let copy mk old =
    let a = mk room in
    Array.blit old 0 a 0 t.ev_room;
    a
  in
  t.ev_time <- copy (fun n -> Array.make n 0.0) t.ev_time;
  t.ev_seq <- copy (fun n -> Array.make n 0) t.ev_seq;
  t.ev_pack <- copy (fun n -> Array.make n 0) t.ev_pack;
  t.ev_next <- copy (fun n -> Array.make n nil) t.ev_next;
  for i = t.ev_room to room - 1 do
    t.ev_next.(i) <- (if i = room - 1 then t.free_head else i + 1)
  done;
  t.free_head <- t.ev_room;
  t.ev_room <- room

(* The message column catches up with the arena when a message lands
   past its end; the first message ever stored doubles as the filler of
   empty slots. *)
let grow_msgs t msg =
  let fill =
    match t.filler with
    | Some f -> f
    | None ->
        t.filler <- Some msg;
        msg
  in
  let a = Array.make t.ev_room fill in
  Array.blit t.ev_msg 0 a 0 (Array.length t.ev_msg);
  t.ev_msg <- a

let[@inline] alloc_event t ~time ~pack =
  if t.free_head = nil then grow_arena t;
  let idx = t.free_head in
  t.free_head <- t.ev_next.(idx);
  t.ev_time.(idx) <- time;
  t.ev_seq.(idx) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.ev_pack.(idx) <- pack;
  t.ev_next.(idx) <- nil;
  idx

let free_event t idx =
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

(* Quanta saturate far below [max_int], so a huge finite time cannot
   wrap [int_of_float]; saturated events share one quantum and the
   mini-heap still orders them by exact time. *)
let max_quantum = 1 lsl 60

let[@inline] quantum t time =
  let q = time /. t.tick in
  if q < 1e18 then int_of_float q else max_quantum

(* Lowest level whose span still covers [q] relative to the cursor; the
   event either joins the current quantum's heap, a wheel slot, or the
   overflow chain past the 2^32-quantum horizon. *)
let[@inline] place t idx q =
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
  t.cascades <- t.cascades + 1;
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
            if l > 0 then t.cascades <- t.cascades + 1;
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

(* --- channel FIFO floors --- *)

let[@inline] ch_home key mask =
  let h = key * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

(* The slot holding [key], or the free slot that ends its probe run. *)
let[@inline] ch_find t key =
  let mask = Array.length t.ch_key - 1 in
  let i = ref (ch_home key mask) in
  while t.ch_key.(!i) <> key && t.ch_key.(!i) <> nil do
    i := (!i + 1) land mask
  done;
  !i

let ch_grow t =
  let keys = t.ch_key and floors = t.ch_floor in
  t.ch_key <- Array.make (2 * Array.length keys) nil;
  t.ch_floor <- Array.make (2 * Array.length keys) 0.0;
  for i = 0 to Array.length keys - 1 do
    if keys.(i) <> nil then begin
      let j = ch_find t keys.(i) in
      t.ch_key.(j) <- keys.(i);
      t.ch_floor.(j) <- floors.(i)
    end
  done

(* Backward-shift deletion: later members of slot [i]'s probe run move
   up into the hole, so no lookup ever stops short at it. *)
let ch_remove t i =
  let mask = Array.length t.ch_key - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while t.ch_key.(!j) <> nil do
    let home = ch_home t.ch_key.(!j) mask in
    (* The entry at [j] must stay put iff its home lies cyclically in
       (hole, j]. *)
    let stays =
      if !hole <= !j then !hole < home && home <= !j
      else !hole < home || home <= !j
    in
    if not stays then begin
      t.ch_key.(!hole) <- t.ch_key.(!j);
      t.ch_floor.(!hole) <- t.ch_floor.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  t.ch_key.(!hole) <- nil;
  t.ch_count <- t.ch_count - 1

(* FIFO per channel: a delivery may not overtake the last one scheduled
   on its channel, so its time is raised to just past that one's. *)
let[@inline] fifo_floor t key time =
  let i = ch_find t key in
  if t.ch_key.(i) = key then begin
    let after = t.ch_floor.(i) +. 1e-9 in
    let time = if after > time then after else time in
    t.ch_floor.(i) <- time;
    time
  end
  else begin
    let i =
      if 2 * (t.ch_count + 1) > Array.length t.ch_key then begin
        ch_grow t;
        ch_find t key
      end
      else i
    in
    t.ch_key.(i) <- key;
    t.ch_floor.(i) <- time;
    t.ch_count <- t.ch_count + 1;
    time
  end

(* A floor at or behind the clock can never bump a future enqueue
   (every new delivery time is >= clock), so dropping it is invisible to
   the schedule.  Swept in place when the table doubles past the last
   high-water mark ([enqueue] tests [prune_limit]): amortized O(1) per
   enqueue, deterministic (no randomness involved), and it bounds the
   metadata of workloads that touch many distinct channels once.
   Removal shifts later entries of a probe run back, so the sweep
   re-examines a slot after removing from it; entries that wrap past the
   end were already examined and kept. *)
let prune t =
  let before = t.ch_count in
  let i = ref 0 in
  while !i < Array.length t.ch_key do
    if t.ch_key.(!i) <> nil && t.ch_floor.(!i) +. 1e-9 <= t.clock then
      ch_remove t !i
    else incr i
  done;
  t.prunes <- t.prunes + (before - t.ch_count);
  t.prune_limit <- max 512 (2 * t.ch_count)

(* Raw enqueue, no fault pipeline.  A channel between two processes keeps
   its FIFO floor; a self-channel is a process's timers, and each timer
   fires at its own time. *)
let[@inline] enqueue t ~flags ~time ~src ~dst =
  check_id "Des" src;
  check_id "Des" dst;
  if t.ch_count > t.prune_limit then prune t;
  let time = if src = dst then time else fifo_floor t (channel_id src dst) time in
  let idx = alloc_event t ~time ~pack:(pack ~src ~dst flags) in
  place t idx (quantum t time);
  t.total_pending <- t.total_pending + 1;
  if t.total_pending > t.queue_peak then t.queue_peak <- t.total_pending;
  if flags land weak_bit = 0 then begin
    t.strong_pending <- t.strong_pending + 1;
    if t.strong_pending > t.strong_peak then t.strong_peak <- t.strong_pending
  end;
  idx

let[@inline] enqueue_msg t ~weak ~time ~src ~dst msg =
  let idx = enqueue t ~flags:(if weak then weak_bit else 0) ~time ~src ~dst in
  if idx >= Array.length t.ev_msg then grow_msgs t msg;
  t.ev_msg.(idx) <- msg

let drop t = t.dropped <- t.dropped + 1

(* The fault pipeline.  Self-channels (src = dst) model local timers and
   are exempt from every fault: a process's own clock does not lose
   ticks.  Crashed endpoints and partitioned links swallow the message;
   otherwise the fault profile may drop it, spike its delay, or deliver
   a duplicate copy (scheduled after the original, so FIFO still holds). *)
let[@inline] schedule t ~weak ~time ~src ~dst msg =
  t.sent <- t.sent + 1;
  if src = dst then begin
    if is_down t dst then drop t else enqueue_msg t ~weak ~time ~src ~dst msg
  end
  else if is_down t src || is_down t dst || partitioned t src dst then drop t
  else begin
    let f = t.profile in
    if f.drop_p > 0.0 && Rng.float t.rng 1.0 < f.drop_p then drop t
    else begin
      let time =
        if f.spike_p > 0.0 && Rng.float t.rng 1.0 < f.spike_p then begin
          t.spikes <- t.spikes + 1;
          time +. f.spike_delay
        end
        else time
      in
      enqueue_msg t ~weak ~time ~src ~dst msg;
      if f.dup_p > 0.0 && Rng.float t.rng 1.0 < f.dup_p then begin
        t.duplicated <- t.duplicated + 1;
        enqueue_msg t ~weak ~time ~src ~dst msg
      end
    end
  end

(* A nan or infinite delay has no place on the timeline: it would pass
   through [int_of_float] to an arbitrary quantum and stamp later events
   with a nan clock. *)
let check_delay fn delay =
  if not (Float.is_finite delay) then invalid_arg (fn ^ ": non-finite delay");
  if delay < 0.0 then invalid_arg (fn ^ ": negative delay")

let send_after ?(weak = false) t ~delay ~src ~dst payload =
  check_delay "Des.send_after" delay;
  let jitter = if src = dst then 0.0 else t.min_delay +. Rng.float t.rng t.delay_span in
  schedule t ~weak ~time:(t.clock +. delay +. jitter) ~src ~dst payload

let send ?weak t ~src ~dst payload = send_after ?weak t ~delay:0.0 ~src ~dst payload

let restart_after t ~delay node =
  check_delay "Des.restart_after" delay;
  ignore
    (enqueue t ~flags:restart_bit ~time:(t.clock +. delay) ~src:node ~dst:node
      : int)

let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h land max_int

let record t ~src ~dst msg =
  t.digest <-
    mix (mix (mix t.digest (Int64.to_int (Int64.bits_of_float t.clock) land max_int)) src) dst;
  if t.trace_on then t.trace_rev <- { at = t.clock; src; dst; msg } :: t.trace_rev

(* Pop the globally earliest (time, seq) event, or [nil]. *)
let pop_event t =
  if t.hp_n = 0 then refill t;
  if t.hp_n = 0 then nil
  else begin
    let idx = heap_pop t in
    t.total_pending <- t.total_pending - 1;
    if t.ev_pack.(idx) land weak_bit = 0 then
      t.strong_pending <- t.strong_pending - 1;
    idx
  end

(* A timer set before its process's latest crash died with it.
   Restarts never reach this check: one queued before a later crash
   still brings the process back. *)
let[@inline] lost_timer t idx ~src ~dst =
  src = dst
  && Hashtbl.length t.crashed_at > 0
  &&
  match Hashtbl.find t.crashed_at dst with
  | seq -> t.ev_seq.(idx) < seq
  | exception Not_found -> false

(* Deliver one popped event through the crash filter and the handler;
   frees the arena slot.  Event times never run behind the clock, and
   the clock is only written when it moves: the write boxes a float. *)
let dispatch_event t ~handler idx =
  let at = t.ev_time.(idx) in
  if at > t.clock then t.clock <- at;
  let p = t.ev_pack.(idx) in
  let dst = pack_dst p in
  if p land restart_bit <> 0 then begin
    free_event t idx;
    restart t dst
  end
  else begin
    let src = pack_src p in
    let lost = is_down t dst || lost_timer t idx ~src ~dst in
    let msg = t.ev_msg.(idx) in
    (match t.filler with Some f -> t.ev_msg.(idx) <- f | None -> ());
    free_event t idx;
    if lost then drop t
    else begin
      t.delivered <- t.delivered + 1;
      record t ~src ~dst msg;
      handler ~time:t.clock ~src ~dst msg
    end
  end

(* Adds what the simulator counted since the last call to the Metrics
   registry, then sets the ["des.queue_depth"] gauge to the strong
   high-water mark and the current strong count, so after a drain the
   gauge's value and peak read exactly as if it had been written on
   every enqueue and pop. *)
let publish t =
  let flush i cell total =
    Metrics.add cell (total - t.published.(i));
    t.published.(i) <- total
  in
  flush 0 m_messages_sent t.sent;
  flush 1 m_events_dispatched t.delivered;
  flush 2 m_dropped t.dropped;
  flush 3 m_duplicated t.duplicated;
  flush 4 m_spikes t.spikes;
  flush 5 m_cascades t.cascades;
  flush 6 m_prunes t.prunes;
  Metrics.set_gauge m_queue_depth (float_of_int t.strong_peak);
  Metrics.set_gauge m_queue_depth (float_of_int t.strong_pending)

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
  Fun.protect ~finally:(fun () -> publish t) drain

let pending t = t.total_pending

let messages_delivered t = t.delivered

let queue_peak t = t.queue_peak

let drops t = t.dropped

let dups t = t.duplicated

let digest t = t.digest

let channel_meta_size t = t.ch_count

let set_trace t on =
  t.trace_on <- on;
  if not on then t.trace_rev <- []

let trace t = List.rev t.trace_rev

let replay steps ~handler =
  List.iter (fun s -> handler ~time:s.at ~src:s.src ~dst:s.dst s.msg) steps
