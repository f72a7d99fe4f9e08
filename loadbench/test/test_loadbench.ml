(* The load benchmark's own checks: its inputs are a pure function of the
   seed, and its response check rejects any corrupted byte. *)

open Loadbench
module W = Workload

let texts (w : W.t) = Array.map (fun (l : W.line) -> l.W.text) w.W.lines

let same_seed_same_lines name () =
  let a = W.make name 7 and b = W.make name 7 in
  Alcotest.(check (array string)) "request lines" (texts a) (texts b);
  Alcotest.(check bool) "stream" true (a.W.stream = b.W.stream);
  let c = W.make name 8 in
  Alcotest.(check bool) "another seed, other lines" false (texts a = texts c && a.W.stream = c.W.stream)

let flipped_byte_is_caught () =
  let w = W.make "hot" 3 in
  let expected = W.expected w in
  Array.iteri
    (fun li resp ->
      Alcotest.(check bool) "expected bytes pass" true (W.check ~expected:resp resp = W.Match);
      for i = 0 to String.length resp - 1 do
        let b = Bytes.of_string resp in
        Bytes.set b i (Char.chr (Char.code resp.[i] lxor 1));
        if W.check ~expected:resp (Bytes.to_string b) = W.Match then
          Alcotest.failf "line %d: byte %d flipped still passes" li i
      done)
    expected

let refusals_are_classified () =
  let expected = {|{"op":"select","status":"ok","exit":0}|} in
  let busy = Flowtrace_service.Proto.busy ~op:"select" "daemon at capacity" in
  let error = Flowtrace_service.Proto.error ~op:"select" "unknown session" in
  Alcotest.(check bool) "busy" true (W.check ~expected busy = W.Busy);
  Alcotest.(check bool) "error" true (W.check ~expected error = W.Errored)

let () =
  Alcotest.run "loadbench"
    [
      ( "workload",
        List.map
          (fun name -> Alcotest.test_case (name ^ ": same seed, same requests") `Quick (same_seed_same_lines name))
          W.names );
      ( "check",
        [
          Alcotest.test_case "one flipped byte fails the check" `Quick flipped_byte_is_caught;
          Alcotest.test_case "busy and error responses are failures" `Quick refusals_are_classified;
        ] );
    ]
