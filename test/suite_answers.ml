(* The oracle's answers, bit for bit, on fixed inputs: ω*, the LP (2.1)
   value at radii 0–2 and the witness on loadgen demands, the graph
   oracle on one grid instance and on E14's and E17's graphs, a seeded
   session trace, and a point load
   whose optimum lies off the LP grid.  Any change to how the LP is
   resolved or how the bracket scan runs must leave every row as
   recorded.  The last two tests pin the serving protocol's wire bytes
   the same way: a codec change must reproduce every request and
   response byte for byte. *)

let point2 x y = [| x; y |]
let bits = Int64.bits_of_float

(* Witness as two numbers: the bits of its ω and an FNV digest of its
   points in order.  [-1L] for both when there is no witness, which only
   an empty demand gets. *)
let witness_bits = function
  | None -> (-1L, -1L)
  | Some (points, omega) ->
      ( bits omega,
        Int64.of_int (List.fold_left (Array.fold_left Fnv.add_int) Fnv.basis points) )

(* One row per demand: ω*, lp_value at radii 0, 1 and 2, witness ω,
   witness points digest. *)
let demand_row dm =
  let w_omega, w_points = witness_bits (Oracle.witness dm) in
  [|
    bits (Oracle.omega_star dm);
    bits (Oracle.lp_value ~radius:0 dm);
    bits (Oracle.lp_value ~radius:1 dm);
    bits (Oracle.lp_value ~radius:2 dm);
    w_omega;
    w_points;
  |]

let row_fields =
  [|
    "omega_star"; "lp_value r=0"; "lp_value r=1"; "lp_value r=2"; "witness ω";
    "witness points";
  |]

(* The first [limit] distinct demands among a mix's first 200 queries
   (repeat-heavy draws from a pool of eight, so it yields at most eight). *)
let mix_demands ~seed ~mix ~limit =
  let same a b =
    Demand_map.support_size a = Demand_map.support_size b
    && Demand_map.fold a ~init:true ~f:(fun acc p v -> acc && Demand_map.value b p = v)
  in
  Array.fold_left
    (fun acc (r : Protocol.request) ->
      let dm = r.Protocol.demand in
      if List.length acc >= limit || List.exists (same dm) acc then acc
      else acc @ [ dm ])
    []
    (Loadgen.queries ~seed ~mix ~n:200)

let gcmvrp_grid () =
  Gcmvrp.omega_star
    (Gcmvrp.of_grid_2d
       (Demand_map.of_alist 2 [ (point2 0 0, 7); (point2 2 1, 4); (point2 1 3, 9) ])
       ~pad:3)

(* E14's six graphs, built as bench/main.ml builds them, each as
   (name, instance). *)
let e14_graphs () =
  let path_demand = Array.make 41 0 in
  path_demand.(20) <- 120;
  let star = Digraph.create 25 in
  for leaf = 1 to 24 do
    Digraph.add_undirected star 0 leaf ~weight:1
  done;
  let star_demand = Array.make 25 0 in
  star_demand.(0) <- 200;
  let tree = Digraph.create 31 in
  for v = 1 to 30 do
    Digraph.add_undirected tree v ((v - 1) / 2) ~weight:1
  done;
  let geometric n =
    let rng = Rng.create (1000 + n) in
    let g, _ =
      Gcmvrp.random_geometric ~rng ~n
        ~box:(Box.make ~lo:[| 0; 0 |] ~hi:[| 14; 14 |])
        ~radius:9
    in
    let demand = Array.init n (fun i -> if i mod 4 = 0 then 5 + Rng.int rng 25 else 0) in
    (Printf.sprintf "geometric-%d" n, Gcmvrp.create g ~demand)
  in
  [
    ("path-41", Gcmvrp.create (Gcmvrp.line_graph 41) ~demand:path_demand);
    ("star-25", Gcmvrp.create star ~demand:star_demand);
    ( "tree-31",
      Gcmvrp.create tree ~demand:(Array.init 31 (fun v -> if v >= 15 then 10 else 0)) );
    geometric 20;
    geometric 40;
    geometric 60;
  ]

(* 200 seeded add/remove events on a 5x5 board, a query after each; the
   result digests every answer's bits in order. *)
let session_trace () =
  let rng = Rng.create 2718 in
  let s = Oracle.Session.create (Demand_map.empty 2) in
  let live = ref [] and n_live = ref 0 and h = ref Fnv.basis in
  for _ = 1 to 200 do
    if !n_live > 0 && Rng.int rng 3 = 0 then begin
      let k = Rng.int rng !n_live in
      Oracle.Session.remove_job s (List.nth !live k);
      live := List.filteri (fun i _ -> i <> k) !live;
      decr n_live
    end
    else begin
      let p = point2 (Rng.int rng 5) (Rng.int rng 5) in
      Oracle.Session.add_job s p;
      live := p :: !live;
      incr n_live
    end;
    h := Fnv.add_int !h (Int64.to_int (bits (Oracle.Session.omega_star s)))
  done;
  Int64.of_int !h

(* 76 jobs at one point: the binding set is the point at radius 3, whose
   25-site neighbourhood does not divide the grid, so ω* is the grid
   level just above 76/25 while the witness reports 76/25 itself. *)
let off_grid = Demand_map.of_alist 2 [ (point2 0 0, 76) ]

(* Recorded per mix as the loadgen seed and one row per distinct demand,
   in the field order of [row_fields]. *)
let mix_table =
  [
    ( Loadgen.Repeat_heavy,
      11,
      [|
        [| 4608469161550694693L; 4617315517961601024L; 4608469161550694693L;
           4605180818965630521L; 4608469161550694693L; 2087959175379647975L |];
        [| 4607182418800017408L; 4616189618054758400L; 4605629454273165614L;
           4602845623324679640L; 4607182418800017408L; 2964873444074723908L |];
        [| 4608433418696509212L; 4616189618054758400L; 4608433418696509212L;
           4604930618986332160L; 4608433418696509212L; 2213817637624934561L |];
        [| 4608269495218563810L; 4617315517961601024L; 4608269495218563810L;
           4604976584796714746L; 4608269494572141321L; 668185249256034721L |];
        [| 4607182418800017408L; 4616189618054758400L; 4607182418800017408L;
           4604017738991934119L; 4607182418800017408L; 4559597522853078694L |];
        [| 4607182418800017408L; 4616189618054758400L; 4605380978949069210L;
           4602050419804061488L; 4607182418800017408L; 3969808736876814438L |];
        [| 4607396875925130289L; 4613937818241073152L; 4607396875925130289L;
           4604133828283028149L; 4607396875925130289L; 881312444939700645L |];
        [| 4607182418800017408L; 4616189618054758400L; 4606056518893174784L;
           4602678819172646912L; 4607182418800017408L; 660892449486124676L |];
      |] );
    ( Loadgen.Churn,
      12,
      [|
        [| 4607182418800017408L; 4617315517961601024L; 4607182418800017408L;
           4602678819172646912L; 4607182418800017408L; 438447628122716327L |];
        [| 4607182418800017408L; 4617315517961601024L; 4607182418800017408L;
           4602774650013868682L; 4607182418800017408L; 438447628122716327L |];
        [| 4607182418800017408L; 4617315517961601024L; 4607182418800017408L;
           4602933743207498459L; 4607182418800017408L; 438447628122716327L |];
        [| 4607182418800017408L; 4617315517961601024L; 4607182418800017408L;
           4602933743207498459L; 4607182418800017408L; 438447628122716327L |];
        [| 4607182418800017408L; 4616189618054758400L; 4606181618882823964L;
           4602933743207498459L; 4607182418800017408L; 2154487312063504867L |];
        [| 4607182418800017408L; 4617315517961601024L; 4607182418800017408L;
           4603103696729899978L; 4607182418800017408L; 438447628122716327L |];
        [| 4607182418800017408L; 4617315517961601024L; 4607182418800017408L;
           4603120355899350763L; 4607182418800017408L; 438447628122716327L |];
        [| 4607182418800017408L; 4617315517961601024L; 4607182418800017408L;
           4603241769126068224L; 4607182418800017408L; 438447628122716327L |];
        [| 4607182418800017408L; 4617315517961601024L; 4607182418800017408L;
           4603054119141594453L; 4607182418800017408L; 438447628122716327L |];
        [| 4607182418800017408L; 4617315517961601024L; 4607182418800017408L;
           4602883528246618298L; 4607182418800017408L; 438447628122716327L |];
        [| 4607182418800017408L; 4617315517961601024L; 4607182418800017408L;
           4602979059147804945L; 4607182418800017408L; 438447628122716327L |];
        [| 4607557718768964949L; 4617315517961601024L; 4607557718768964949L;
           4603279299122962978L; 4607557718768964949L; 2758710013739181794L |];
        [| 4607933018737912491L; 4617315517961601024L; 4607933018737912491L;
           4603579539098121011L; 4607933018737912491L; 2758710013739181794L |];
        [| 4607557718768964949L; 4617315517961601024L; 4607557718768964949L;
           4603279299122962978L; 4607557718768964949L; 2758710013739181794L |];
        [| 4607557718768964949L; 4617315517961601024L; 4607557718768964949L;
           4603279299122962978L; 4607557718768964949L; 2758710013739181794L |];
        [| 4607933018737912491L; 4617315517961601024L; 4607933018737912491L;
           4603579539098121011L; 4607933018737912491L; 2758710013739181794L |];
        [| 4607557718768964949L; 4616189618054758400L; 4607557718768964949L;
           4603279299122962978L; 4607557718768964949L; 2758710013739181794L |];
        [| 4607933018737912491L; 4617315517961601024L; 4607933018737912491L;
           4603455313933574273L; 4607933018737912491L; 2758710013739181794L |];
        [| 4608308318706860032L; 4617315517961601024L; 4608308318706860032L;
           4603804719079489536L; 4608308318706860032L; 2758710013739181794L |];
        [| 4608308318706860032L; 4617315517961601024L; 4608308318706860032L;
           4603804719079489536L; 4608308318706860032L; 2758710013739181794L |];
      |] );
    ( Loadgen.Cold_miss,
      13,
      [|
        [| 4609301763844442233L; 4616189618054758400L; 4609301763844442233L;
           4605523200515723323L; 4609301759801132936L; 220800586745729252L |];
        [| 4608083138725491507L; 4618441417868443648L; 4608083138725491507L;
           4605031448828139312L; 4608083138725491507L; 2683889252710349605L |];
        [| 4610706976660242335L; 4618441417868443648L; 4610706976660242335L;
           4607413372627062049L; 4610706975030133448L; 2136111825139244037L |];
        [| 4607182418800017408L; 4616189618054758400L; 4606101559888449074L;
           4602852034542930393L; 4607182418800017408L; 1737493329909225029L |];
        [| 4607182418800017408L; 4613937818241073152L; 4604608933298662839L;
           4600343636029197495L; 4607182418800017408L; 3429053099248128768L |];
        [| 4607182418800017408L; 4613937818241073152L; 4606181618882823964L;
           4603103696729899978L; 4607182418800017408L; 4360996505443681221L |];
        [| 4607745368753438720L; 4617315517961601024L; 4607745368753438720L;
           4602678819172646912L; 4607745368753438720L; 1483194063873035204L |];
        [| 4611686018427387904L; 4619567317775286272L; 4611890727501359290L;
           4608171014907031788L; 4611686018427387904L; 1995875943071784999L |];
        [| 4607933018737912491L; 4617315517961601024L; 4607933018737912491L;
           4603965561923324197L; 4607933018737912491L; 3271242642470213126L |];
        [| 4608083138725491507L; 4618441417868443648L; 4608083138725491507L;
           4603462062584364538L; 4608083138725491507L; 2746152651961504999L |];
        [| 4607182418800017408L; 4616189618054758400L; 4606489557318883486L;
           4602883528246618298L; 4607182418800017408L; 1737493329909225029L |];
        [| 4607182418800017408L; 4616189618054758400L; 4606619468846596096L;
           4603157935886251371L; 4607182418800017408L; 1665827742288215206L |];
        [| 4608683618675807573L; 4617315517961601024L; 4608683618675807573L;
           4604832726057368920L; 4608683618675807573L; 1741358192300635303L |];
        [| 4607182418800017408L; 4616189618054758400L; 4606515227186889421L;
           4603376567176853045L; 4607182418800017408L; 4410974350353441696L |];
        [| 4608871268660281344L; 4618441417868443648L; 4608871268660281344L;
           4604980658982191832L; 4608871268660281344L; 1190409953874145286L |];
        [| 4608871268660281344L; 4618441417868443648L; 4608871268660281344L;
           4605466761799114362L; 4608871268660281344L; 632604897325727015L |];
        [| 4607182418800017408L; 4613937818241073152L; 4606217361737009445L;
           4603144713529703036L; 4607182418800017408L; 1438947453719573575L |];
        [| 4608308318706860032L; 4618441417868443648L; 4608308318706860032L;
           4604857983507826562L; 4608308318706860032L; 3975039308751722596L |];
        [| 4610605159515819570L; 4619567317775286272L; 4610605159515819570L;
           4607396875925130289L; 4610605154516818985L; 2163601032890506917L |];
        [| 4608083138725491507L; 4618441417868443648L; 4608083138725491507L;
           4603550494904719943L; 4608083138725491507L; 3108204619316743554L |];
      |] );
  ]

let test_loadgen_demands () =
  List.iter
    (fun (mix, seed, expected) ->
      let got = Array.of_list (List.map demand_row (mix_demands ~seed ~mix ~limit:20)) in
      Alcotest.(check int)
        (Loadgen.mix_name mix ^ " distinct demands")
        (Array.length expected) (Array.length got);
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun f b ->
              Alcotest.(check int64)
                (Printf.sprintf "%s demand %d %s" (Loadgen.mix_name mix) i row_fields.(f))
                b got.(i).(f))
            row)
        expected)
    mix_table

let test_single_values () =
  Alcotest.(check int64) "Gcmvrp.omega_star on a padded grid" 4610785298501913805L
    (bits (gcmvrp_grid ()));
  Alcotest.(check int64) "200-event session trace digest" 3089605137199797626L
    (session_trace ());
  (* 3.0400002775002775 = 2190989/720720 and 3.04 = 76/25 *)
  let expected =
    [| 4614027890858495635L; 4635048441494372352L; 4624746457346762342L;
       4618268202498160167L; 4614027890233620562L; 585502832614925413L |]
  in
  let got = demand_row off_grid in
  Array.iteri
    (fun f b -> Alcotest.(check int64) ("76 jobs at a point " ^ row_fields.(f)) b got.(f))
    expected;
  Alcotest.(check int64) "lp_value r=3 is ω*" (bits (Oracle.omega_star off_grid))
    (bits (Oracle.lp_value ~radius:3 off_grid))

(* The graph oracle's ω* bits on E14's six graphs and E17's four. *)
let test_graph_experiments () =
  let graphs =
    e14_graphs ()
    @ List.map (fun (name, inst, _) -> ("e17 " ^ name, inst)) (Suite_gcmvrp.e17_graphs ())
  in
  let expected =
    [
      4620693217682128896L; 4620693217682128896L; 4617497116030991117L;
      4619567317775286272L; 4618371049124265984L; 4617315517961601024L;
      4619567317775286272L; 4619633548284291850L; 4618441417868443648L;
      4616428445307725017L;
    ]
  in
  List.iter2
    (fun (name, inst) b -> Alcotest.(check int64) name b (bits (Gcmvrp.omega_star inst)))
    graphs expected

let process = Suite_serve.process

(* The wire bytes: each request's [request_to_string], then its
   response's [response_to_string], folded with [Fnv.add_string].
   Returns (exchanges, bytes, digest). *)
let wire_digest exchanges =
  List.fold_left
    (fun (n, len, h) (req, resp) ->
      let q = Protocol.request_to_string req and a = Protocol.response_to_string resp in
      (n + 1, len + String.length q + String.length a, Fnv.add_string (Fnv.add_string h q) a))
    (0, 0, Fnv.basis) exchanges

(* Loadgen's three mixes at seeds 11-13, 200 queries a stream, each
   stream answered by its own fresh engine. *)
let mix_exchanges () =
  List.concat_map
    (fun mix ->
      List.concat_map
        (fun seed ->
          let engine = Engine.create () in
          Array.to_list
            (Array.map
               (fun req -> (req, process engine req))
               (Loadgen.queries ~seed ~mix ~n:200)))
        [ 11; 12; 13 ])
    Loadgen.all_mixes

(* The shapes the mixes lack, answered by one engine in order: session
   ops under names with a quote, a backslash, a control byte and a
   non-ASCII byte; lp_value at radii 0-2 and a negative one; dimensions
   1 and 3 with negative coordinates; extreme ids; and the Pong,
   Tight_set None and Error answers. *)
let shape_exchanges () =
  let engine = Engine.create () in
  let d1 = Demand_map.of_alist 1 [ ([| -4 |], 2); ([| 3 |], 7) ] in
  let d2 = Demand_map.of_alist 2 [ (point2 0 0, 3); (point2 1 (-2), 5) ] in
  let d3 = Demand_map.of_alist 3 [ ([| -1; 0; 2 |], 4); ([| 0; -3; 1 |], 1) ] in
  let empty = Demand_map.empty 2 in
  let huge = Demand_map.of_alist 2 [ (point2 0 0, 100_000_000_000_000) ] in
  let name = "q\"b\\s\001\xc3\xa9" in
  let session ?(name = name) id op = Protocol.request ~session:name ~id op empty in
  let reqs =
    [
      session 1 (Protocol.Session_add (point2 0 0));
      session 2 (Protocol.Session_add (point2 1 (-2)));
      session 3 (Protocol.Session_add (point2 0 0));
      session 4 (Protocol.Session_remove (point2 0 0));
      session 5 Protocol.Session_query;
      session 6 Protocol.Session_query;
      session 7 (Protocol.Session_remove (point2 9 9));
      session ~name:"ghost\"\\\n\t\r" 8 Protocol.Session_query;
      Protocol.request ~id:9 (Protocol.Session_add (point2 0 0)) empty;
      Protocol.request ~id:max_int (Protocol.Lp_value 0) d2;
      Protocol.request ~id:min_int (Protocol.Lp_value 1) d1;
      Protocol.request ~id:(-1) (Protocol.Lp_value 2) d3;
      Protocol.request ~id:0 (Protocol.Lp_value 2) d2;
      Protocol.request ~id:10 (Protocol.Lp_value (-1)) d2;
      Protocol.request ~id:11 Protocol.Omega_star d1;
      Protocol.request ~id:12 Protocol.Omega_star d3;
      Protocol.request ~id:13 Protocol.Witness d1;
      Protocol.request ~id:14 Protocol.Witness d3;
      Protocol.request ~id:15 Protocol.Witness empty;
      Protocol.request ~id:16 Protocol.Omega_star huge;
      Protocol.request ~session:name ~id:17 Protocol.Ping d2;
      Protocol.request ~id:18 Protocol.Shutdown empty;
    ]
  in
  List.map (fun req -> (req, process engine req)) reqs

let test_wire_mixes () =
  let n, len, h = wire_digest (mix_exchanges ()) in
  Alcotest.(check int) "exchanges" 1800 n;
  Alcotest.(check int) "bytes" 450_797 len;
  Alcotest.(check int) "digest" 1340227777520562087 h

let test_wire_shapes () =
  let n, len, h = wire_digest (shape_exchanges ()) in
  Alcotest.(check int) "exchanges" 22 n;
  Alcotest.(check int) "bytes" 2914 len;
  Alcotest.(check int) "digest" 3470453878735546789 h

let suite =
  [
    Alcotest.test_case "loadgen demands" `Quick test_loadgen_demands;
    Alcotest.test_case "single values" `Quick test_single_values;
    Alcotest.test_case "graph ω* on E14's and E17's graphs" `Quick test_graph_experiments;
    Alcotest.test_case "wire bytes of the loadgen mixes" `Quick test_wire_mixes;
    Alcotest.test_case "wire bytes of the other shapes" `Quick test_wire_shapes;
  ]
