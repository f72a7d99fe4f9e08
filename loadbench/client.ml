(* The load generator: spawns `flowtrace serve`, drives it from this one
   process over the workload's pipelined Unix-socket connections, and
   checks every response against its expected bytes. Each session is
   owned by one connection, so its requests reach the daemon in stream
   order and a close and its reopen never race its other requests.

   Runs in a private run directory (the current directory), so the
   socket path stays short and relative whatever the checkout's path. *)

module W = Workload

let now = Samples.now
let socket = "d.sock"

(* ------------------------------------------------------------------ *)
(* Daemon processes *)

(* every daemon still running; killed at exit if a run aborts *)
let live : int list ref = ref []

let reap pid = live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let spawn ~exe ~args =
  if Sys.file_exists socket then Sys.remove socket;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log = Unix.openfile "daemon.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) devnull log log in
  Unix.close devnull;
  Unix.close log;
  live := pid :: !live;
  pid

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      reap pid;
      true

(* poll until the daemon listens; connect refuses until bind+listen *)
let connect pid =
  let deadline = now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
        Unix.close fd;
        if exited pid then failwith "the daemon exited during start-up (see daemon.log)";
        if now () > deadline then failwith "the daemon did not listen within 30 s";
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let read_proc pid file = In_channel.with_open_text (Printf.sprintf "/proc/%d/%s" pid file) In_channel.input_all

(* peak resident set, from /proc/<pid>/status *)
let vm_hwm_mb pid =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_proc pid "status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* user + system CPU seconds of the whole process (all domains), from
   /proc/<pid>/stat in clock ticks of 1/100 s *)
let cpu_s pid =
  let s = read_proc pid "stat" in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

(* ------------------------------------------------------------------ *)
(* Connections and response accounting *)

type tally = {
  mutable sent : int;
  mutable ok : int;
  mutable mismatch : int;
  mutable busy : int;
  mutable errors : int;
  mutable timeouts : int;
}

let tally () = { sent = 0; ok = 0; mismatch = 0; busy = 0; errors = 0; timeouts = 0 }
let failed t = t.mismatch + t.busy + t.errors + t.timeouts

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  pending : (int * float) Queue.t;  (** line index, and the time latency counts from *)
}

type ctx = {
  w : W.t;
  wire : string array;  (** each line with its newline *)
  expected : string array;
  mutable first_bad : string option;  (** first failed exchange, for the report *)
}

let conn fd = { fd; rbuf = Buffer.create 65536; pending = Queue.create () }

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let send ctx tally c li ~stamp =
  write_all c.fd ctx.wire.(li) 0;
  Queue.push (li, stamp) c.pending;
  tally.sent <- tally.sent + 1

(* Account one response line; [true] when it matched its expected bytes. *)
let receive ctx tally c resp =
  let li, _ = Queue.peek c.pending in
  let v = W.check ~expected:ctx.expected.(li) resp in
  (match v with
  | W.Match -> tally.ok <- tally.ok + 1
  | W.Mismatch -> tally.mismatch <- tally.mismatch + 1
  | W.Busy -> tally.busy <- tally.busy + 1
  | W.Errored -> tally.errors <- tally.errors + 1);
  if v <> W.Match && ctx.first_bad = None then
    ctx.first_bad <-
      Some
        (Printf.sprintf "request %s\n  expected %s\n  received %s"
           (String.trim ctx.wire.(li)) ctx.expected.(li) resp);
  v = W.Match

let chunk = Bytes.create 65536

(* Read what is available on [c] and hand each complete response line,
   with the pending entry it answers, to [on_line] (the entry is popped
   after the call). *)
let read_lines c on_line =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "the daemon closed a connection"
  | n ->
      let t = now () in
      let start = Buffer.length c.rbuf in
      Buffer.add_subbytes c.rbuf chunk 0 n;
      let s = Buffer.contents c.rbuf in
      let from = ref 0 in
      for i = start to String.length s - 1 do
        if s.[i] = '\n' then begin
          on_line (String.sub s !from (i - !from)) t;
          ignore (Queue.pop c.pending);
          from := i + 1
        end
      done;
      Buffer.clear c.rbuf;
      Buffer.add_substring c.rbuf s !from (String.length s - !from)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* the connections with response bytes to read within [timeout] seconds *)
let ready conns timeout =
  match Unix.select (Array.to_list (Array.map (fun c -> c.fd) conns)) [] [] (Float.max 0.0 timeout) with
  | rs, _, _ -> List.filter (fun c -> List.memq c.fd rs) (Array.to_list conns)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Read the responses that arrived, if any, accounting each; [on_ok due t]
   is called for each one that matched, with its stamp and arrival time. *)
let collect ctx tally conns ~timeout on_ok =
  List.iter
    (fun c ->
      read_lines c (fun resp t ->
          let stamp = snd (Queue.peek c.pending) in
          if receive ctx tally c resp then on_ok stamp t))
    (ready conns timeout)

let outstanding conns = Array.fold_left (fun n c -> n + Queue.length c.pending) 0 conns

(* Wait for every outstanding response; ones that never come count as
   timeouts. *)
let drain ctx tally conns ?(on_ok = fun _ _ -> ()) ~grace () =
  let deadline = now () +. grace in
  while outstanding conns > 0 && now () < deadline do
    collect ctx tally conns ~timeout:0.05 on_ok
  done;
  Array.iter
    (fun c ->
      tally.timeouts <- tally.timeouts + Queue.length c.pending;
      Queue.clear c.pending)
    conns

(* ------------------------------------------------------------------ *)
(* Start-up: spawn, open or resume sessions, one warm-up of each kind *)

type daemon = { pid : int; conns : conn array }

(* the connection that owns a line's session *)
let owner ctx conns li = conns.(ctx.w.W.lines.(li).W.session mod Array.length conns)

let session_lines ctx =
  let w = ctx.w in
  (if w.W.resume then [] else Array.to_list w.W.opens) @ Array.to_list w.W.warmup

(* Returns the running daemon and its set-up time: spawn to the last
   warm-up answer. Set-up requests go one at a time. Sent concurrently,
   the first selects of two shards race to force the lazily built
   popcount table of Flowtrace_core.Bitset, and the loser fails with
   CamlinternalLazy.Undefined — a start-up defect of the daemon that
   this sequential warm-up does not exercise and that the steady-state
   phases, which run after the table is built, never meet. *)
let start ctx tally ~exe ~args =
  let t0 = now () in
  let pid = spawn ~exe ~args in
  let conns = Array.init ctx.w.W.conns (fun _ -> conn (connect pid)) in
  List.iter
    (fun li ->
      send ctx tally (owner ctx conns li) li ~stamp:0.0;
      drain ctx tally conns ~grace:30.0 ())
    (session_lines ctx);
  ({ pid; conns }, now () -. t0)

(* Shut the daemon down and wait for it to exit. *)
let shutdown d =
  write_all d.conns.(0).fd "{\"op\":\"shutdown\"}\n" 0;
  Array.iter (fun c -> Unix.close c.fd) d.conns;
  let deadline = now () +. 10.0 in
  while (not (exited d.pid)) && now () < deadline do
    Unix.sleepf 0.001
  done;
  if List.mem d.pid !live then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid);
    reap d.pid;
    failwith "the daemon did not shut down within 10 s"
  end

(* ------------------------------------------------------------------ *)
(* Closed loop: [depth] requests in flight across the connections, the
   next sent as each answer arrives. Each connection walks the stream
   items of its own sessions from position [from] on. *)

type closed = {
  c_tally : tally;
  c_seconds : float;  (** the phase's length *)
  c_answered : int;  (** correct answers that arrived within it *)
  c_cpu_s : float;  (** daemon CPU over the phase *)
}

let closed_loop ctx d ~from ~depth ~seconds =
  let tally = tally () in
  let n = Array.length d.conns in
  let streams =
    Array.init n (fun i ->
        List.filter (fun item -> owner ctx d.conns item.(0) == d.conns.(i)) (Array.to_list ctx.w.W.stream)
        |> Array.of_list)
  in
  let pos = Array.make n (from / n) in
  (* a churn pair goes out whole, so a phase never ends between a close
     and its reopen *)
  let refill () =
    Array.iteri
      (fun i c ->
        while Queue.length c.pending < max 1 (depth / n) do
          Array.iter (fun li -> send ctx tally c li ~stamp:0.0) streams.(i).(pos.(i) mod Array.length streams.(i));
          pos.(i) <- pos.(i) + 1
        done)
      d.conns
  in
  let cpu0 = cpu_s d.pid in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let answered = ref 0 in
  let count _ t = if t <= t_end then incr answered in
  refill ();
  while now () < t_end do
    collect ctx tally d.conns ~timeout:(t_end -. now ()) count;
    if now () < t_end then refill ()
  done;
  let cpu = cpu_s d.pid -. cpu0 in
  (* the requests still in flight are checked, not counted *)
  drain ctx tally d.conns ~grace:30.0 ();
  { c_tally = tally; c_seconds = seconds; c_answered = !answered; c_cpu_s = cpu }

(* ------------------------------------------------------------------ *)
(* Open loop: item k is due at t0 + k / rate whatever the daemon does;
   latency counts from the due time, so a stall also charges the
   requests queued behind it. *)

type opened = {
  o_tally : tally;
  o_latency_ms : float list;  (** in send order *)
  o_late_ms : float list;  (** how late each item was sent *)
}

let open_loop ctx d ~from ~rate ~seconds =
  let tally = tally () in
  let stream = ctx.w.W.stream in
  let n = int_of_float (rate *. seconds) in
  let lat = ref [] and late = ref [] in
  let on_ok due t = lat := (due, 1000.0 *. (t -. due)) :: !lat in
  let t0 = now () +. 0.001 in
  let due k = t0 +. (float_of_int k /. rate) in
  let k = ref 0 in
  while !k < n do
    let t = now () in
    while !k < n && due !k <= t do
      let item = stream.((from + !k) mod Array.length stream) in
      let c = owner ctx d.conns item.(0) in
      Array.iter (fun li -> send ctx tally c li ~stamp:(due !k)) item;
      late := (1000.0 *. (now () -. due !k)) :: !late;
      incr k
    done;
    collect ctx tally d.conns ~timeout:(if !k < n then due !k -. now () else 0.0) on_ok
  done;
  drain ctx tally d.conns ~on_ok ~grace:30.0 ();
  {
    o_tally = tally;
    o_latency_ms = List.map snd (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) !lat);
    o_late_ms = !late;
  }

(* ------------------------------------------------------------------ *)
(* Sequential round trips, one request at a time: the socket side of the
   server-overhead figure. *)

let round_trips ctx tally d lines =
  List.map
    (fun li ->
      let c = owner ctx d.conns li in
      let t0 = now () in
      send ctx tally c li ~stamp:t0;
      let rtt = ref 0.0 in
      while not (Queue.is_empty c.pending) do
        if ready [| c |] 30.0 = [] then failwith "no response within 30 s";
        read_lines c (fun resp t ->
            ignore (receive ctx tally c resp);
            rtt := t -. t0)
      done;
      !rtt)
    lines
