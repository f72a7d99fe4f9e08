(* The traced run: the workload's request sequence replayed in-process,
   calling each layer's public functions and timing them from here.

   Every layer gets its own pass over the sequence, in workload order,
   calling only that layer for the requests that reach it. Interleaving
   layers in one pass would let, say, a localize's evaluator build evict
   the one-slot Infogain cache between two selects and so time a program
   the daemon never runs. A final pass rebuilds each request from its
   layer calls inside spans, checks the rebuilt answer against the
   expected response, and writes the spans as a Chrome trace. *)

open Flowtrace_core
module W = Workload
module Json = Flowtrace_analysis.Json
module Service = Flowtrace_service
module Proto = Service.Proto
module Store = Service.Store
module Supervisor = Flowtrace_runtime.Supervisor
module Backoff = Flowtrace_runtime.Backoff
module Tel = Flowtrace_telemetry.Telemetry
module Sink = Flowtrace_telemetry.Sink

let now = Samples.now

type metric = { name : string; unit_ : string; value : float; n : int }

let us xs = List.map (fun x -> x *. 1e6) xs
let ms xs = List.map (fun x -> x *. 1e3) xs
let med name unit_ xs = { name; unit_; value = Samples.median xs; n = List.length xs }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* The replayed sequence *)

type plan = {
  w : W.t;
  expected : string array;
  seq : int array;  (** line indices in replay order *)
  window : int * int;  (** [seq] positions of the measured stream slice *)
  shards : int;
  state_dir : string option;  (** mirrors the daemon's --state-dir *)
}

(* opens, warm-ups, a slice of the measured stream, then close/reopen
   rounds and the final closes. Small workloads repeat the warm-ups and
   the close/reopen rounds so that every op has about ten samples. *)
let plan w ~expected ~items ~shards ~state_dir =
  let rounds = max 1 (10 / Array.length w.W.sessions) in
  let rep n a = Array.concat (List.init n (fun _ -> a)) in
  let head = Array.append w.W.opens (rep rounds w.W.warmup) in
  let window =
    Array.concat (Array.to_list (Array.sub w.W.stream 0 (min items (Array.length w.W.stream))))
  in
  let tail = Array.append (rep rounds (Array.append w.W.closes w.W.opens)) w.W.closes in
  {
    w;
    expected;
    seq = Array.concat [ head; window; tail ];
    window = (Array.length head, Array.length head + Array.length window);
    shards;
    state_dir;
  }

let in_window p i = i >= fst p.window && i < snd p.window

(* [pass p f] calls [f pos line] over the sequence in order. *)
let pass p f = Array.iteri (fun pos li -> f pos li p.w.W.lines.(li)) p.seq

(* Interleavings as the daemon holds them: rebuilt on every (re)open. *)
let sessions p = Array.map W.interleave p.w.W.sessions

let on_open p inters (l : W.line) =
  match l.W.payload with
  | W.Open -> inters.(l.W.session) <- W.interleave p.w.W.sessions.(l.W.session)
  | _ -> ()

let width_of p (l : W.line) =
  match l.W.payload with
  | W.Select w -> w
  | _ -> p.w.W.sessions.(l.W.session).W.width

(* the rendering inputs of an expected response: envelope and fields *)
let render_args resp =
  match Json.parse resp with
  | Ok (Json.Obj kvs) ->
      let str k = Option.bind (List.assoc_opt k kvs) Json.to_string_opt in
      let status =
        match str "status" with
        | Some "ok" -> Proto.Sok
        | Some "degraded" -> Proto.Sdegraded
        | Some "busy" -> Proto.Sbusy
        | _ -> Proto.Serror
      in
      let fields =
        List.filter (fun (k, _) -> not (List.mem k [ "id"; "op"; "status"; "exit" ])) kvs
      in
      (str "id", Option.value ~default:"" (str "op"), status, fields)
  | _ -> failwith ("unparsable expected response: " ^ resp)

let render (id, op, status, fields) = Proto.response ?id ~op status fields

(* ------------------------------------------------------------------ *)
(* Per-layer passes *)

let samples p times keep =
  let acc = ref [] in
  pass p (fun pos li l -> if keep pos li l then acc := times.(pos) :: !acc);
  List.rev !acc

let is_op name (l : W.line) = String.equal (W.op_name l.W.payload) name

let proto_pass p =
  let parse = Array.make (Array.length p.seq) 0.0 and rend = Array.make (Array.length p.seq) 0.0 in
  let args = Hashtbl.create 64 in
  pass p (fun _ li _ -> if not (Hashtbl.mem args li) then Hashtbl.replace args li (render_args p.expected.(li)));
  Hashtbl.iter
    (fun li a ->
      if not (String.equal (render a) p.expected.(li)) then
        failwith (Printf.sprintf "re-rendering line %d does not reproduce its response" li))
    args;
  pass p (fun pos li l ->
      let _, dt = timed (fun () -> Proto.parse l.W.text) in
      parse.(pos) <- dt;
      let a = Hashtbl.find args li in
      let _, dt = timed (fun () -> render a) in
      rend.(pos) <- dt);
  (parse, rend, args)

(* Supervisor.run of an empty body, as Dispatch configures it; batches of
   100 calls, since one call is below the clock's resolution *)
let supervisor_pass () =
  let backoff = Backoff.make ~seed:0 () in
  List.init 60 (fun _ ->
      let _, dt =
        timed (fun () ->
            for _ = 1 to 100 do
              ignore (Supervisor.run ~retries:2 ~backoff ~tasks:[| 0 |] (fun _ -> ()))
            done)
      in
      dt /. 100.0)

let interleave_pass p =
  let per = max 1 (16 / Array.length p.w.W.sessions) in
  List.concat_map
    (fun s ->
      let inst = W.instances s in
      List.init per (fun _ -> snd (timed (fun () -> Interleave.make inst))))
    (Array.to_list p.w.W.sessions)

let uses_select (l : W.line) = match l.W.payload with W.Select _ | W.Localize _ -> true | _ -> false

let infogain_pass p =
  let inters = sessions p in
  let last = Array.make (Array.length inters) None in
  let times = ref [] and hits = ref 0 and calls = ref 0 in
  pass p (fun pos _ l ->
      on_open p inters l;
      if uses_select l then begin
        let ev, dt = timed (fun () -> Infogain.evaluator inters.(l.W.session)) in
        if in_window p pos then begin
          times := dt :: !times;
          incr calls;
          match last.(l.W.session) with Some e when e == ev -> incr hits | _ -> ()
        end;
        last.(l.W.session) <- Some ev
      end);
  (!times, float_of_int !hits /. float_of_int (max 1 !calls), !calls)

(* Kernel.make as the exact engine calls it. On a pool past the mask the
   Auto engine never calls it; the figure there is the cost of the
   rejection a direct caller would pay. *)
let kernel_pass p =
  let inters = sessions p in
  let times = ref [] in
  pass p (fun pos _ l ->
      on_open p inters l;
      if uses_select l then begin
        let _, dt =
          timed (fun () -> try ignore (Kernel.make inters.(l.W.session)) with Invalid_argument _ -> ())
        in
        if in_window p pos then times := dt :: !times
      end);
  !times

let select_pass p =
  let inters = sessions p in
  let times = Array.make (Array.length p.seq) 0.0 and streamed = ref 0 and n = ref 0 in
  pass p (fun pos _ l ->
      on_open p inters l;
      if uses_select l then begin
        let inter = inters.(l.W.session) in
        let _, dt = timed (fun () -> Select.select inter ~buffer_width:(width_of p l)) in
        times.(pos) <- dt;
        if in_window p pos && is_op "select" l then begin
          incr n;
          if List.length (Interleave.messages inter) > Kernel.max_pool then incr streamed
        end
      end);
  (times, float_of_int !streamed /. float_of_int (max 1 !n), !n)

(* the library's own telemetry counters, per select request; a pass of its
   own because enabling telemetry changes what the timed passes measure *)
let counter_pass p =
  let inters = sessions p in
  let scored = Tel.Counter.v "select.candidates_scored" in
  let streamed = Tel.Counter.v "select.candidates_streamed" in
  Tel.install Sink.null;
  let n = ref 0 in
  Fun.protect ~finally:Tel.shutdown (fun () ->
      pass p (fun pos _ l ->
          on_open p inters l;
          if in_window p pos && is_op "select" l then begin
            incr n;
            ignore (Select.select inters.(l.W.session) ~buffer_width:(width_of p l))
          end);
      let per c = float_of_int (Tel.Counter.value c) /. float_of_int (max 1 !n) in
      (per scored, per streamed, !n))

(* the localize half of a localize request, given its selection *)
let localize inter sel (l : W.line) =
  match l.W.payload with
  | W.Localize { observed; lossy; skip_budget } ->
      let selected = Select.is_observable sel in
      if lossy then
        (Localize.lossy ~semantics:Localize.Prefix ~skip_budget inter ~selected ~observed)
          .Localize.lr_consistent
      else Localize.consistent_paths ~semantics:Localize.Prefix inter ~selected ~observed
  | _ -> invalid_arg "Replay.localize"

let localize_pass p =
  let inters = sessions p in
  let times = ref [] in
  pass p (fun _ _ l ->
      on_open p inters l;
      if is_op "localize" l then begin
        let inter = inters.(l.W.session) in
        let sel = Select.select inter ~buffer_width:(width_of p l) in
        times := snd (timed (fun () -> localize inter sel l)) :: !times
      end);
  !times

let mine_pass p =
  let parse = ref [] and mine = ref [] in
  pass p (fun _ _ l ->
      match l.W.payload with
      | W.Mine text ->
          let packets, dt = timed (fun () -> Flowtrace_soc.Trace_io.parse text) in
          parse := dt :: !parse;
          let _, dt =
            timed (fun () -> Flowtrace_mining.Miner.mine ~file:"<request>" [ packets ])
          in
          mine := dt :: !mine
      | _ -> ());
  (!parse, !mine)

(* Store.save (fsync included) and Store.load_all on the state-dir
   filesystem, about ten of each *)
let store_pass p ~dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let records = Array.map W.store_record p.w.W.sessions in
  let rounds = max 1 (10 / Array.length records) in
  let saves = ref [] and loads = ref [] in
  for _ = 1 to rounds do
    Array.iter (fun r -> saves := snd (timed (fun () -> Store.save ~dir r)) :: !saves) records
  done;
  for _ = 1 to 10 do
    let (sessions, _), dt = timed (fun () -> Store.load_all ~repair:true dir) in
    if List.length sessions <> Array.length records then failwith "store pass: sessions lost";
    loads := dt :: !loads
  done;
  (!saves, !loads)

(* ------------------------------------------------------------------ *)
(* Requests rebuilt from their layer calls, inside spans *)

let gain_bits g = Json.String (Printf.sprintf "%016Lx" (Int64.bits_of_float g))
let names xs = Json.List (List.map (fun n -> Json.String n) xs)

(* Step 1/2 on the kernel, then Step 3 and coverage: Select.select's exact
   path for pools that fit the mask, one span per layer *)
let kernel_select tr ~req inter ~width =
  let span name f = Spans.with_span tr ~req name f in
  let k = span "kernel.make" (fun () -> Kernel.make inter) in
  let sel =
    span "kernel.walk" (fun () ->
        Option.get (Kernel.select_exact ~limit:Combination.default_limit ~jobs:1 k ~buffer_width:width))
  in
  let combo = sel.Kernel.sel_messages in
  let packed, gain, bits =
    span "packing.pack" (fun () ->
        Packing.pack inter ~selected:combo ~gain:sel.Kernel.sel_gain
          ~bits_used:(Message.total_width combo) ~buffer_width:width ~scale_partial:false)
  in
  let observable =
    List.map (fun (m : Message.t) -> m.Message.name) combo
    @ List.map (fun q -> q.Packing.p_parent.Message.name) packed
  in
  let coverage =
    span "kernel.coverage" (fun () -> Kernel.coverage k ~selected:(fun b -> List.mem b observable))
  in
  { Select.messages = combo; packed; gain; coverage; bits_used = bits; buffer_width = width; tier = Select.Tier.Exact }

(* What rebuilding requests carries from one request to the next: the
   rebuilt sessions' interleavings and a session table like Dispatch's. *)
type rebuild = {
  inters : Interleave.t array;
  backoff : Backoff.t;
  mu : Mutex.t;
  table : (string, int) Hashtbl.t;
  args : (int, string option * string * Proto.status * (string * Json.t) list) Hashtbl.t;
  dir : string option;  (** where rebuilt opens persist, mirroring --state-dir *)
}

let rebuilder p args ~dir =
  let table = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.replace table s.W.id i) p.w.W.sessions;
  { inters = sessions p; backoff = Backoff.make ~seed:0 (); mu = Mutex.create (); table; args; dir }

(* Rebuild the request at [pos] from its layer calls, one span per call
   (none when [tr] is off). The rebuilt results are checked against the
   expected response's fields, and the response is rendered from the
   expected rendering arguments, which [proto_pass] showed reproduce the
   expected bytes. *)
let rebuild p rb tr pos li (l : W.line) =
  let span name f = Spans.with_span tr ~req:pos name f in
  let inters = rb.inters and dir = rb.dir in
  let s = l.W.session in
  let ((_, _, _, fields) as a) = Hashtbl.find rb.args li in
  let expect =
    List.iter (fun (k, v) ->
        if List.assoc_opt k fields <> Some v then
          failwith (Printf.sprintf "traced replay: line %d rebuilds a different %s" li k))
  in
  ignore
    (span (W.op_name l.W.payload) (fun () ->
        ignore (span "proto.parse" (fun () -> Proto.parse l.W.text));
        ignore
          (span "supervisor.run" (fun () ->
               Supervisor.run ~retries:2 ~backoff:rb.backoff ~tasks:[| 0 |] (fun _ -> ())));
        ignore
          (span "dispatch.lookup" (fun () ->
               Mutex.protect rb.mu (fun () -> Hashtbl.find rb.table p.w.W.sessions.(s).W.id)));
        (match l.W.payload with
          | W.Open ->
              let sess = p.w.W.sessions.(s) in
              let inst = span "spec.parse" (fun () -> W.instances sess) in
              inters.(s) <- span "interleave.make" (fun () -> Interleave.make inst);
              Option.iter
                (fun dir -> span "store.save" (fun () -> Store.save ~dir (W.store_record sess)))
                dir
          | W.Close ->
              Option.iter
                (fun dir ->
                  span "store.remove" (fun () -> Store.remove ~dir p.w.W.sessions.(s).W.id))
                dir
          | W.Select width ->
              let inter = inters.(s) in
              ignore (span "infogain.evaluator" (fun () -> Infogain.evaluator inter));
              (* Select's Auto engine choice counts the pool on every call *)
              let stream =
                span "select.engine" (fun () ->
                    List.length (Interleave.messages inter) > Kernel.max_pool)
              in
              let r =
                if stream then span "select.stream" (fun () -> Select.select inter ~buffer_width:width)
                else kernel_select tr ~req:pos inter ~width
              in
              expect [ ("selected", names (Select.selected_names r)); ("gain_bits", gain_bits r.Select.gain) ]
          | W.Localize _ ->
              let inter = inters.(s) in
              let sel = span "select" (fun () -> Select.select inter ~buffer_width:(width_of p l)) in
              let consistent = span "localize" (fun () -> localize inter sel l) in
              expect [ ("selection", names (Select.selected_names sel)); ("consistent", Json.Int consistent) ]
          | W.Mine text ->
              let packets = span "trace_io.parse" (fun () -> Flowtrace_soc.Trace_io.parse text) in
              let r =
                span "miner.mine" (fun () -> Flowtrace_mining.Miner.mine ~file:"<request>" [ packets ])
              in
              expect [ ("spec", Json.String (Flowtrace_mining.Miner.spec_text r)) ]);
        span "proto.render" (fun () -> render a)))

let block = 16

(* The first request of each block follows requests on other interleaving
   objects (the dispatcher's own, or the rebuild's), so its evaluator
   lookup misses the one-slot cache; figures from the interleaved pass
   leave those positions out. *)
let settled pos = pos mod block <> 0

(* Dispatch.handle, the untraced rebuild and the traced rebuild take turns
   on blocks of [block] requests, so the three see the machine in the same
   state and drift between passes cannot skew their ratios. Returns the
   handle and untraced times by position. *)
let interleaved_pass p tr args ~dir =
  let disp, _ = Service.Dispatch.create ?state_dir:p.state_dir ~shards:p.shards () in
  let n = Array.length p.seq in
  let handle = Array.make n 0.0 and untraced = Array.make n 0.0 in
  let quiet = Spans.create () in
  quiet.Spans.on <- false;
  let rb = rebuilder p args ~dir in
  let each lo hi f =
    for pos = lo to hi - 1 do
      let li = p.seq.(pos) in
      f pos li p.w.W.lines.(li)
    done
  in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + block) in
    each !lo hi (fun pos li l ->
        let (resp, _), dt = timed (fun () -> Service.Dispatch.handle disp l.W.text) in
        if not (String.equal resp p.expected.(li)) then
          failwith (Printf.sprintf "in-process replay: line %d answered %s" li resp);
        handle.(pos) <- dt);
    let rebuilds =
      [
        (fun pos li l -> untraced.(pos) <- snd (timed (fun () -> rebuild p rb quiet pos li l)));
        (fun pos li l -> rebuild p rb tr pos li l);
      ]
    in
    (* whichever rebuild runs second finds the code warm, so they swap
       places every block *)
    List.iter (each !lo hi) (if !lo / block mod 2 = 0 then rebuilds else List.rev rebuilds);
    lo := hi
  done;
  (handle, untraced)

(* ------------------------------------------------------------------ *)

(* every pass starts from a compacted heap, so no pass pays for the
   garbage of the one before *)
let fresh f =
  Gc.compact ();
  f ()

type result = {
  metrics : metric list;
  handle : float array;  (** in-process Dispatch.handle seconds, by [seq] position *)
  select_sum_ratio : float;
}

let run p ~trace_path =
  let scratch = "replay-state" in
  let parse, rend, args = fresh (fun () -> proto_pass p) in
  let window pos _ _ = in_window p pos in
  let sel pos _ l = in_window p pos && is_op "select" l in
  let sup = fresh (fun () -> supervisor_pass ()) in
  let inter = fresh (fun () -> interleave_pass p) in
  let ev, hit_ratio, ev_n = fresh (fun () -> infogain_pass p) in
  let kmake = fresh (fun () -> kernel_pass p) in
  let sel_t, stream_share, selects = fresh (fun () -> select_pass p) in
  let scored, streamed, counted = fresh (fun () -> counter_pass p) in
  let loc = fresh (fun () -> localize_pass p) in
  let tparse, tmine = fresh (fun () -> mine_pass p) in
  let saves, loads = fresh (fun () -> store_pass p ~dir:scratch) in
  let dir = Option.map (fun _ -> "rebuilt-state") p.state_dir in
  Option.iter (fun d -> Unix.mkdir d 0o755) dir;
  let tr = Spans.create () in
  let handle, untraced = fresh (fun () -> interleaved_pass p tr args ~dir) in
  Spans.write_chrome tr trace_path;
  (* per request: its traced duration, the self times of its layer spans,
     and of those the supervisor and session lookup *)
  let n = Array.length p.seq in
  let traced = Array.make n 0.0 and layers = Array.make n 0.0 and aux = Array.make n 0.0 in
  List.iter
    (fun ((sp : Spans.span), self) ->
      let i = sp.Spans.req in
      if sp.Spans.parent < 0 then traced.(i) <- Spans.dur sp
      else begin
        layers.(i) <- layers.(i) +. self;
        if List.mem sp.Spans.name [ "supervisor.run"; "dispatch.lookup" ] then aux.(i) <- aux.(i) +. self
      end)
    (Spans.self_times tr);
  let sel pos li l = settled pos && sel pos li l in
  let handle_of op = samples p handle (fun pos _ l -> settled pos && is_op op l) in
  let handle_sel = samples p handle sel in
  let sum a = List.fold_left ( +. ) 0.0 (samples p a (fun pos _ _ -> settled pos)) in
  let select_sum_ratio = Samples.median (samples p layers sel) /. Samples.median handle_sel in
  let metrics =
    [ med "proto.parse_us" "us" (us (samples p parse window));
      med "proto.render_us" "us" (us (samples p rend window)) ]
    @ List.map (fun op -> med ("dispatch.handle_us." ^ op) "us" (us (handle_of op))) W.op_names
    @ [
        (* what Dispatch.handle spends on a select beyond parsing it,
           selecting and rendering the answer *)
        med "dispatch.overhead_us" "us"
          (us (samples p (Array.init n (fun i -> handle.(i) -. (layers.(i) -. aux.(i)))) sel));
        med "supervisor.run_us" "us" (us sup);
        med "interleave.make_ms" "ms" (ms inter);
        med "infogain.evaluator_us" "us" (us ev);
        { name = "infogain.hit_ratio"; unit_ = "ratio"; value = hit_ratio; n = ev_n };
        med "kernel.make_us" "us" (us kmake);
        med "select.us" "us" (us (samples p sel_t (fun pos _ l -> in_window p pos && is_op "select" l)));
        { name = "select.candidates_scored"; unit_ = "count"; value = scored; n = counted };
        { name = "select.candidates_streamed"; unit_ = "count"; value = streamed; n = counted };
        { name = "select.stream_share"; unit_ = "ratio"; value = stream_share; n = selects };
        med "localize.us" "us" (us loc);
        med "trace_io.parse_us" "us" (us tparse);
        med "miner.mine_us" "us" (us tmine);
        med "store.save_ms" "ms" (ms saves);
        med "store.load_all_ms" "ms" (ms loads);
        { name = "tracing.overhead_ratio"; unit_ = "ratio"; value = sum traced /. sum untraced; n };
        (* a select's layer self times over its Dispatch.handle, medians *)
        { name = "select.self_sum_ratio"; unit_ = "ratio"; value = select_sum_ratio; n = List.length handle_sel };
      ]
  in
  { metrics; handle; select_sum_ratio }
