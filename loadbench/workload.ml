(* The three request mixes the load benchmark drives through a real
   daemon, generated as pure functions of the seed.

   Every distinct request line lives once in [lines]; the measured
   traffic ([stream]) is a sequence of items, each one line or a
   close/open churn pair, that index into it. Mixes are stratified —
   each block of items holds every op in fixed proportion and only the
   order and the drawn parameters depend on the seed — so the cost of a
   run does not drift with the seed while the inputs still do. *)

open Flowtrace_core
open Flowtrace_soc
module Json = Flowtrace_analysis.Json
module Dispatch = Flowtrace_service.Dispatch
module Store = Flowtrace_service.Store

type payload =
  | Open
  | Select of int  (** buffer width; Step-3 packing on, as the wire default *)
  | Localize of { observed : Indexed.t list; lossy : bool; skip_budget : int }
  | Mine of string  (** packet-trace text, as [flowtrace simulate -o] writes it *)
  | Close

let op_name = function
  | Open -> "open-session"
  | Select _ -> "select"
  | Localize _ -> "localize"
  | Mine _ -> "mine"
  | Close -> "close"

let op_names = [ "select"; "localize"; "mine"; "open-session"; "close" ]

type session = {
  id : string;
  tenant : string;
  spec : string;
  counts : (string * int) list;  (** flow name -> instances, as open-session sends them *)
  width : int;
}

type line = { text : string; session : int; payload : payload }

type t = {
  name : string;
  seed : int;
  sessions : session array;
  lines : line array;
  opens : int array;  (** per session: its open-session line *)
  closes : int array;  (** per session: its close line *)
  warmup : int array;  (** one select, localize and mine line per session *)
  stream : int array array;  (** measured items: one line, or a close/open pair *)
  resume : bool;  (** the daemon restarts from a populated state dir *)
  conns : int;
      (** client connections. One keeps the daemon's view of the request
          order that of the stream, which decides the evaluator cache's
          hits on [wide]; [tenants] spreads its sessions over two, so a
          persisting reopen holds up only its own connection's answers. *)
  rate : float;  (** open-loop requests per second, below the seed's capacity *)
  closed_share : float;  (** of each round, the closed loop's; the open loop has the rest *)
}

(* Open-loop send rates, fixed per workload at a sixth to a third of the
   closed-loop capacity measured on the parent commit (2 cores,
   --shards 2). On a shared machine capacity halves while the host
   steals a quarter of its CPU time; these rates keep the open loop
   under capacity then (hot at 1000/s drew busy answers), and the
   daemon and the client rarely want both cores at once. *)
let rates = [ ("hot", 500.0); ("tenants", 300.0); ("wide", 90.0) ]
let names = List.map fst rates

(* The closed loop's share of each round. At 90/s [wide]'s open loop
   needs seven eighths of every round for the quietest half of the
   rounds to hold over 1000 latencies, enough for a p99 of its own. *)
let closed_shares = [ ("hot", 0.25); ("tenants", 0.25); ("wide", 0.125) ]

(* ------------------------------------------------------------------ *)
(* Sessions and their interleavings, built exactly as Dispatch builds
   them from the open-session fields. *)

let instances (s : session) =
  let flows = Spec_parser.parse_string s.spec in
  let next = ref 0 in
  List.concat_map
    (fun (name, n) ->
      let f = List.find (fun f -> String.equal f.Flow.name name) flows in
      List.init n (fun _ ->
          incr next;
          { Interleave.flow = f; index = !next }))
    s.counts

let interleave s = Interleave.make (instances s)

let store_record (s : session) =
  {
    Store.se_id = s.id;
    se_tenant = s.tenant;
    se_width = s.width;
    se_strategy = Select.Exact;
    se_instances = s.counts;
    se_spec = s.spec;
  }

let scenario_session ~tenant ~id ~width sc =
  {
    id;
    tenant;
    spec = Spec_parser.print_flows (Scenario.flows sc);
    counts = sc.Scenario.analysis_counts;
    width;
  }

let ext_session ~tenant ~id ~width =
  {
    id;
    tenant;
    spec = Spec_parser.print_flows T2_ext.scenario_flows;
    counts = List.map (fun f -> (f.Flow.name, 1)) T2_ext.scenario_flows;
    width;
  }

(* The synthetic spec of the wide workload: two chain flows of five steps,
   each step a choice among seven alternative messages, so the pool holds
   70 messages — past the 62-slot Kernel mask. The widths are always the
   multiset {3..9} x 10 and only their assignment to messages is seeded,
   which keeps the Step-1 candidate count of every buffer width the same
   for every seed. *)
let wide_spec rng =
  let widths = Array.init 70 (fun i -> 3 + (i mod 7)) in
  Rng.shuffle rng widths;
  let b = Buffer.create 4096 in
  let k = ref 0 in
  List.iter
    (fun fl ->
      Printf.bprintf b "flow %s\n" fl;
      for s = 0 to 5 do
        Printf.bprintf b "state %s%d%s\n" fl s
          (if s = 0 then " init" else if s = 5 then " stop" else "")
      done;
      for s = 0 to 4 do
        for a = 0 to 6 do
          let name = Printf.sprintf "%s%d%c" (String.lowercase_ascii fl) s (Char.chr (97 + a)) in
          Printf.bprintf b "msg %s %d\n" name widths.(!k);
          incr k;
          Printf.bprintf b "trans %s%d %s %s%d\n" fl s name fl (s + 1)
        done
      done;
      Buffer.add_char b '\n')
    [ "WA"; "WB" ];
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Seeded request parameters *)

(* one initial-to-stop execution of the interleaving, by a seeded walk *)
let walk rng inter =
  let rec go s acc =
    match Interleave.out_edges inter s with
    | [] -> List.rev acc
    | _ when Interleave.is_stop inter s -> List.rev acc
    | es ->
        let m, d = List.nth es (Rng.int rng (List.length es)) in
        go d (m :: acc)
  in
  go (Rng.pick rng (Interleave.initials inter)) []

(* What a trace buffer would hold: a walked execution projected on the
   messages the session's own selection observes. A lossy query also
   loses one entry, so the gap-tolerant matcher has a skip to charge. *)
let observed rng inter ~width ~lossy =
  let sel = Select.select inter ~buffer_width:width in
  let proj = Localize.project ~selected:(Select.is_observable sel) (walk rng inter) in
  let n = List.length proj in
  if lossy && n >= 3 then
    let drop = 1 + Rng.int rng (n - 2) in
    List.filteri (fun i _ -> i <> drop) proj
  else proj

let mine_trace rng sc =
  let config = { Scenario.seed = 1 + Rng.int rng 1_000_000; rounds = 12; spacing = 120 } in
  Trace_io.print (Scenario.run ~config sc).Sim.packets

(* ------------------------------------------------------------------ *)
(* Request lines *)

let line_text ~session:(s : session) payload =
  let str v = Json.String v in
  let head = [ ("op", str (op_name payload)); ("session", str s.id) ] in
  let fields =
    match payload with
    | Open ->
        [
          ("tenant", str s.tenant);
          ("spec", str s.spec);
          ("width", Json.Int s.width);
          ("instances", Json.Obj (List.map (fun (n, k) -> (n, Json.Int k)) s.counts));
        ]
    | Select w -> [ ("width", Json.Int w) ]
    | Localize { observed; lossy; skip_budget } ->
        [
          ( "trace",
            Json.List
              (List.map
                 (fun (m : Indexed.t) -> str (Printf.sprintf "%d:%s" m.Indexed.inst m.Indexed.base))
                 observed) );
          ("lossy", Json.Bool lossy);
          ("skip_budget", Json.Int skip_budget);
        ]
    | Mine text -> [ ("trace_text", str text) ]
    | Close -> []
  in
  Json.to_string (Json.Obj (head @ fields))

(* A line table under construction. *)
type table = { sess : session array; mutable acc : line list; mutable n : int }

let add tb i payload =
  tb.acc <- { text = line_text ~session:tb.sess.(i) payload; session = i; payload } :: tb.acc;
  tb.n <- tb.n + 1;
  tb.n - 1

let per_session tb f = Array.init (Array.length tb.sess) f

(* [blocks rng n make] concatenates [n] seeded shuffles of the item block
   [make rng] — the stratification every mix uses. *)
let blocks rng n make =
  Array.concat
    (List.init n (fun _ ->
         let b = make rng in
         Rng.shuffle rng b;
         b))

let finish ~name ~seed ~resume ~conns tb ~opens ~closes ~warmup stream =
  {
    name;
    seed;
    sessions = tb.sess;
    lines = Array.of_list (List.rev tb.acc);
    opens;
    closes;
    warmup;
    stream;
    resume;
    conns;
    rate = List.assoc name rates;
    closed_share = List.assoc name closed_shares;
  }

let localize_lines tb rng inters k =
  per_session tb (fun i ->
      let s = tb.sess.(i) in
      Array.init k (fun j ->
          let lossy = j mod 2 = 1 in
          let observed = observed rng inters.(i) ~width:s.width ~lossy in
          add tb i (Localize { observed; lossy; skip_budget = (if lossy then 2 else 0) })))

(* hot: one Scenario-1 session; selects at eight widths and localize
   queries, 4:1, all on one interleaving. *)
let hot seed =
  let rng = Rng.create seed in
  let tb = { sess = [| scenario_session ~tenant:"hot" ~id:"hot" ~width:32 Scenario.scenario1 |]; acc = []; n = 0 } in
  let inters = Array.map interleave tb.sess in
  let opens = per_session tb (fun i -> add tb i Open) in
  let widths = [| 12; 16; 20; 24; 28; 32; 36; 40 |] in
  let selects = Array.map (fun w -> add tb 0 (Select w)) widths in
  let locs = (localize_lines tb rng inters 8).(0) in
  let mine = add tb 0 (Mine (mine_trace rng Scenario.scenario1)) in
  let closes = per_session tb (fun i -> add tb i Close) in
  let stream =
    blocks rng 400 (fun rng ->
        Array.append
          (Array.map (fun l -> [| l |]) selects)
          (Array.init 2 (fun _ -> [| Rng.pick_arr rng locs |])))
  in
  finish ~name:"hot" ~seed ~resume:false ~conns:1 tb ~opens ~closes
    ~warmup:[| selects.(5); locs.(0); mine |] stream

(* tenants: 16 sessions over the four T2 specs, restarted from a state
   dir. Blocks of 20 items: 10 select, 5 localize, 3 mine and 2 churn
   pairs (close + persisted reopen), each on a seeded session. *)
let tenants seed =
  let rng = Rng.create seed in
  let n = 16 in
  let sess =
    Array.init n (fun i ->
        let id = Printf.sprintf "t%02d" i in
        let tenant = Printf.sprintf "tenant%d" (i mod 4) in
        (* kinds go in pairs, so both connections own every kind *)
        match i / 2 mod 4 with
        | 0 -> scenario_session ~tenant ~id ~width:32 Scenario.scenario1
        | 1 -> scenario_session ~tenant ~id ~width:32 Scenario.scenario2
        | 2 -> scenario_session ~tenant ~id ~width:32 Scenario.scenario3
        | _ -> ext_session ~tenant ~id ~width:32)
  in
  let tb = { sess; acc = []; n = 0 } in
  let inters = Array.map interleave sess in
  let opens = per_session tb (fun i -> add tb i Open) in
  let selects = per_session tb (fun i -> Array.map (fun w -> add tb i (Select w)) [| 12; 20; 28; 36 |]) in
  let locs = localize_lines tb rng inters 3 in
  let traces =
    Array.init 6 (fun j -> mine_trace rng (Scenario.by_id (1 + (j mod 3))))
  in
  let mines = per_session tb (fun i -> Array.init 2 (fun j -> add tb i (Mine traces.(((2 * i) + j) mod 6)))) in
  let closes = per_session tb (fun i -> add tb i Close) in
  let pick rng a = a.(Rng.int rng n) in
  let stream =
    blocks rng 300 (fun rng ->
        let one f = Array.init 1 (fun _ -> f ()) in
        Array.concat
          [
            Array.init 10 (fun _ -> one (fun () -> Rng.pick_arr rng (pick rng selects)));
            Array.init 5 (fun _ -> one (fun () -> Rng.pick_arr rng (pick rng locs)));
            Array.init 3 (fun _ -> one (fun () -> Rng.pick_arr rng (pick rng mines)));
            Array.init 2 (fun _ ->
                let i = Rng.int rng n in
                [| closes.(i); opens.(i) |]);
          ])
  in
  let warmup =
    Array.concat (List.init n (fun i -> [| selects.(i).(0); locs.(i).(0); mines.(i).(0) |]))
  in
  finish ~name:"tenants" ~seed ~resume:true ~conns:2 tb ~opens ~closes ~warmup stream

(* wide: two sessions on the seeded 70-message spec, select only, at
   buffer widths 10-12 (exact selection over a few thousand candidates on
   the streaming engine). *)
let wide seed =
  let rng = Rng.create seed in
  let spec = wide_spec rng in
  let sess =
    Array.init 2 (fun i ->
        { id = Printf.sprintf "w%d" i; tenant = "wide"; spec; counts = [ ("WA", 2); ("WB", 1) ]; width = 11 })
  in
  let tb = { sess; acc = []; n = 0 } in
  let inters = Array.map interleave sess in
  let widths = [| 10; 11; 12 |] in
  let pool = Interleave.messages inters.(0) in
  if List.length pool <= Kernel.max_pool then
    failwith (Printf.sprintf "wide: pool of %d fits the kernel mask" (List.length pool));
  Array.iter
    (fun w ->
      match Combination.count pool ~width:w with
      | _ -> ()
      | exception Combination.Too_many n ->
          failwith (Printf.sprintf "wide: width %d exceeds %d candidates" w n))
    widths;
  let opens = per_session tb (fun i -> add tb i Open) in
  let selects = per_session tb (fun i -> Array.map (fun w -> add tb i (Select w)) widths) in
  let locs = localize_lines tb rng inters 1 in
  let mine = per_session tb (fun i -> add tb i (Mine (mine_trace rng Scenario.scenario1))) in
  let closes = per_session tb (fun i -> add tb i Close) in
  (* blocks of six selects stay on one session and blocks alternate
     sessions, so one request in six follows the other session's *)
  let stream =
    let b = ref 0 in
    blocks rng 300 (fun _ ->
        incr b;
        Array.map (fun l -> [| l |]) (Array.append selects.(!b mod 2) selects.(!b mod 2)))
  in
  let warmup =
    Array.concat (List.init 2 (fun i -> [| selects.(i).(1); locs.(i).(0); mine.(i) |]))
  in
  finish ~name:"wide" ~seed ~resume:false ~conns:1 tb ~opens ~closes ~warmup stream

let make name seed =
  match name with
  | "hot" -> hot seed
  | "tenants" -> tenants seed
  | "wide" -> wide seed
  | _ -> invalid_arg (Printf.sprintf "unknown workload %S (%s)" name (String.concat ", " names))

(* ------------------------------------------------------------------ *)
(* Expected responses *)

let status_of resp =
  match Json.parse resp with
  | Ok obj -> Option.bind (Json.member "status" obj) Json.to_string_opt
  | Error _ -> None

(* Responses are byte-deterministic, so every distinct line is answered
   once by an in-process dispatcher holding the same sessions, in an
   order that leaves every session open: first the opens, then every
   stateless op, then each close with its reopen. Any answer that is not
   "ok" means the mix would fail operations, which no workload may. *)
let expected t =
  let disp, _ = Dispatch.create ~shards:1 () in
  let out = Array.make (Array.length t.lines) "" in
  let run i =
    let resp, _ = Dispatch.handle disp t.lines.(i).text in
    resp
  in
  Array.iter (fun i -> out.(i) <- run i) t.opens;
  Array.iteri
    (fun i l -> match l.payload with Open | Close -> () | _ -> out.(i) <- run i)
    t.lines;
  Array.iteri
    (fun s c ->
      out.(c) <- run c;
      let o = t.opens.(s) in
      if not (String.equal (run o) out.(o)) then
        failwith (Printf.sprintf "%s: reopening session %s answers differently" t.name t.sessions.(s).id))
    t.closes;
  Array.iteri
    (fun i resp ->
      if status_of resp <> Some "ok" then
        failwith
          (Printf.sprintf "%s: %s line %d is not answered ok: %s" t.name
             (op_name t.lines.(i).payload) i resp))
    out;
  out

type verdict = Match | Mismatch | Busy | Errored

(* [check ~expected got] classifies one response line. *)
let check ~expected got =
  if String.equal expected got then Match
  else
    match status_of got with
    | Some "busy" -> Busy
    | Some "error" -> Errored
    | _ -> Mismatch
