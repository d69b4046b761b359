(* Readings taken from outside the layers: peak resident memory from
   /proc, GC statistics, and the library's own [Metrics] counters. *)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> scan ())
      in
      scan ())

(* Counters are read by name, so a counter a later change renames or
   removes reads as absent instead of breaking the build. *)
let counter name =
  match Metrics.sample name with Some (Metrics.Count n) -> Some n | _ -> None

let read_counters names = Array.map counter names

(* [acc.(i) += after.(i) - before.(i)], absent counters staying absent. *)
let accumulate acc ~before ~after =
  Array.iteri
    (fun i a ->
      match (a, before.(i), after.(i)) with
      | Some a, Some b, Some c -> acc.(i) <- Some (a + c - b)
      | _ -> acc.(i) <- None)
    acc

type gc = { minor_words : float; major_words : float; major_collections : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    major_collections = s.Gc.major_collections;
  }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* The four gc.* layer metrics over one traced pass of [ops] operations. *)
let gc_metrics ~before ~after ~ops =
  let per_op x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_words_per_op", per_op (after.minor_words -. before.minor_words));
    ("gc.major_words_per_op", per_op (after.major_words -. before.major_words));
    ( "gc.major_collections",
      float_of_int (after.major_collections - before.major_collections) );
    ("gc.top_heap_mb", top_heap_mb ());
  ]

(* Moves this process, and so every child it starts later, onto the
   machine's last CPU with taskset(1), when the machine has more than one
   CPU and taskset is installed.  Interrupts and other processes' work
   land on CPU 0; on a 2-vCPU VM a stream run pinned away from it varied
   2.5% in p90 latency between runs against 8% unpinned.  For the serve
   workloads it also fixes where the daemon runs relative to its client:
   left to the scheduler, runs flipped between sharing a core (20 us p50)
   and crossing cores (29 us). *)
let pin_to_last_cpu () =
  let cpu = Domain.recommended_domain_count () - 1 in
  if cpu > 0 then
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        match
          Unix.create_process "taskset"
            [| "taskset"; "-pc"; string_of_int cpu; string_of_int (Unix.getpid ()) |]
            null null null
        with
        | pid -> ignore (Unix.waitpid [] pid)
        | exception Unix.Unix_error (_, _, _) -> ())
