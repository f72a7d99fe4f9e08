(* In-memory spans recorded by the traced replay around each layer call.
   A span has a name, a start, an end, its parent and the request it
   belongs to; nothing is written until the run ends, when the spans go
   out as a Chrome trace through the telemetry library's Chrome sink. *)

module Event = Flowtrace_telemetry.Event
module Sink = Flowtrace_telemetry.Sink

type span = { name : string; id : int; parent : int; req : int; t0 : float; t1 : float }

type t = {
  mutable on : bool;  (** false: [with_span] is a bare call, for the untraced pass *)
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
}

let create () = { on = true; spans = []; next = 0; stack = [] }

let with_span tr ~req name f =
  if not tr.on then f ()
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let t0 = Samples.now () in
    let close () =
      let t1 = Samples.now () in
      tr.stack <- List.tl tr.stack;
      tr.spans <- { name; id; parent; req; t0; t1 } :: tr.spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let dur s = s.t1 -. s.t0

(* [self_times tr] pairs every span with its self time: its duration
   minus the time its direct children cover (children run nested and one
   after another, so their durations add). *)
let self_times tr =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    tr.spans;
  List.map (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id))) tr.spans

let write_chrome tr path =
  match tr.spans with
  | [] -> ()
  | spans ->
      let epoch = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
      let oc = open_out path in
      let sink = Sink.chrome oc in
      List.iter
        (fun s ->
          sink.Sink.emit
            (Event.Span
               {
                 Event.sp_name = s.name;
                 sp_id = s.id;
                 sp_parent = (if s.parent < 0 then None else Some s.parent);
                 sp_domain = 0;
                 sp_start_us = (s.t0 -. epoch) *. 1e6;
                 sp_dur_us = dur s *. 1e6;
                 sp_args = [ ("req", Event.Int s.req) ];
               }))
        (List.rev spans);
      sink.Sink.close ();
      close_out oc
