(* Unit and property tests for the exactly-once FIFO delivery filter
   and the dedup-cache utility module. *)

module D = Bft.Delivery

let upd client seq =
  Bft.Update.create ~client ~client_seq:seq
    ~operation:(Printf.sprintf "%d-%d" client seq)
    ~submitted_us:0

let keys released = List.map Bft.Update.key released

(* ------------------------------------------------------------------ *)
(* Delivery *)

let test_delivery_in_order () =
  let d = D.create () in
  Alcotest.(check (list (pair int int))) "first" [ (1, 1) ] (keys (D.offer d (upd 1 1)));
  Alcotest.(check (list (pair int int))) "second" [ (1, 2) ] (keys (D.offer d (upd 1 2)));
  Alcotest.(check int) "expected advanced" 3 (D.expected d 1)

let test_delivery_duplicate_dropped () =
  let d = D.create () in
  ignore (D.offer d (upd 1 1));
  Alcotest.(check (list (pair int int))) "dup" [] (keys (D.offer d (upd 1 1)));
  Alcotest.(check bool) "seen" true (D.seen d (1, 1))

let test_delivery_out_of_order_buffered () =
  let d = D.create () in
  Alcotest.(check (list (pair int int))) "early buffered" []
    (keys (D.offer d (upd 2 3)));
  Alcotest.(check int) "buffered count" 1 (D.buffered_count d);
  Alcotest.(check bool) "buffered is seen" true (D.seen d (2, 3));
  Alcotest.(check (list (pair int int))) "seq2 buffered" []
    (keys (D.offer d (upd 2 2)));
  (* Releasing seq 1 flushes the whole buffered run. *)
  Alcotest.(check (list (pair int int))) "flush" [ (2, 1); (2, 2); (2, 3) ]
    (keys (D.offer d (upd 2 1)));
  Alcotest.(check int) "buffer drained" 0 (D.buffered_count d)

let test_delivery_clients_independent () =
  let d = D.create () in
  ignore (D.offer d (upd 1 1));
  Alcotest.(check (list (pair int int))) "client 2 unaffected" [ (2, 1) ]
    (keys (D.offer d (upd 2 1)));
  Alcotest.(check int) "client 1 expected" 2 (D.expected d 1);
  Alcotest.(check int) "client 3 fresh" 1 (D.expected d 3)

let test_delivery_state_roundtrip () =
  let a = D.create () in
  ignore (D.offer a (upd 1 1));
  ignore (D.offer a (upd 1 2));
  ignore (D.offer a (upd 2 5));
  (* buffered *)
  let b = D.create () in
  D.install b (D.state a);
  Alcotest.(check bool) "digests equal" true
    (Cryptosim.Digest.equal (D.digest a) (D.digest b));
  (* Behaviour equal after transfer. *)
  Alcotest.(check (list (pair int int))) "same release" (keys (D.offer a (upd 1 3)))
    (keys (D.offer b (upd 1 3)));
  Alcotest.(check bool) "buffered survived" true (D.seen b (2, 5))

let prop_delivery_exactly_once_any_order =
  QCheck.Test.make
    ~name:"delivery: any occurrence order releases each key exactly once, in order"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_bound 9))
    (fun occurrence_pattern ->
      (* Build an occurrence stream: values 0..9 map to client seqs;
         make them contiguous 1..k per client then shuffle-ish by the
         generated pattern order. *)
      let d = D.create () in
      let stream =
        List.concat_map
          (fun v ->
            let seq = (v mod 3) + 1 in
            [ upd 0 seq; upd 0 ((v mod 2) + 1) ])
          occurrence_pattern
        @ [ upd 0 1; upd 0 2; upd 0 3 ]
      in
      let released = List.concat_map (fun u -> D.offer d u) stream in
      let ks = keys released in
      (* Released keys are distinct and in increasing seq order. *)
      let rec increasing = function
        | (_, a) :: ((_, b) :: _ as rest) -> a + 1 = b && increasing rest
        | _ -> true
      in
      List.length ks = List.length (List.sort_uniq compare ks)
      && increasing ks)

let prop_delivery_state_digest_stable =
  QCheck.Test.make ~name:"delivery: digest deterministic across install"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20) (pair (int_bound 3) (int_range 1 6)))
    (fun offers ->
      let a = D.create () in
      List.iter (fun (c, s) -> ignore (D.offer a (upd c s))) offers;
      let b = D.create () in
      D.install b (D.state a);
      Cryptosim.Digest.equal (D.digest a) (D.digest b))

(* ------------------------------------------------------------------ *)
(* Dedup cache *)

let test_dedup_cache_remembers () =
  let c = Overlay.Dedup_cache.create ~generation_size:4 () in
  Overlay.Dedup_cache.add c 1;
  Overlay.Dedup_cache.add c 2;
  Alcotest.(check bool) "mem 1" true (Overlay.Dedup_cache.mem c 1);
  Alcotest.(check bool) "not mem 3" false (Overlay.Dedup_cache.mem c 3)

let test_dedup_cache_generational_expiry () =
  let c = Overlay.Dedup_cache.create ~generation_size:2 () in
  Overlay.Dedup_cache.add c 1;
  Overlay.Dedup_cache.add c 2;
  (* Generation full; next adds rotate. *)
  Overlay.Dedup_cache.add c 3;
  Overlay.Dedup_cache.add c 4;
  Alcotest.(check bool) "previous generation still remembered" true
    (Overlay.Dedup_cache.mem c 1);
  (* One more rotation evicts the oldest generation. *)
  Overlay.Dedup_cache.add c 5;
  Overlay.Dedup_cache.add c 6;
  Alcotest.(check bool) "two generations back forgotten" false
    (Overlay.Dedup_cache.mem c 1);
  Alcotest.(check bool) "recent kept" true (Overlay.Dedup_cache.mem c 5)

(* Regression: re-adding an id that is still remembered in the
   [previous] generation must be a no-op. The old code re-inserted it
   into [current], double-counting it and extending its lifetime. *)
let test_dedup_cache_no_reinsert_from_previous () =
  let c = Overlay.Dedup_cache.create ~generation_size:2 () in
  Overlay.Dedup_cache.add c 1;
  Overlay.Dedup_cache.add c 2;
  (* Rotation: previous = {1,2}, current = {3}. *)
  Overlay.Dedup_cache.add c 3;
  (* 1 is remembered; re-adding must not copy it into [current]. *)
  Overlay.Dedup_cache.add c 1;
  Alcotest.(check int) "size not inflated by re-add" 3
    (Overlay.Dedup_cache.size c);
  (* Fill and rotate again: previous = {3,4}, current = {5}. With the
     old bug, 1 would have been resurrected into the newer generation
     and still be remembered here. *)
  Overlay.Dedup_cache.add c 4;
  Overlay.Dedup_cache.add c 5;
  Alcotest.(check bool) "re-added id expires on schedule" false
    (Overlay.Dedup_cache.mem c 1);
  Alcotest.(check bool) "younger ids kept" true (Overlay.Dedup_cache.mem c 3)

let prop_dedup_cache_bounded =
  QCheck.Test.make ~name:"dedup cache memory is bounded by 2 generations"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 500) (int_bound 10_000))
    (fun ids ->
      let c = Overlay.Dedup_cache.create ~generation_size:32 () in
      List.iter (Overlay.Dedup_cache.add c) ids;
      Overlay.Dedup_cache.size c <= 64)

let () =
  Alcotest.run "delivery"
    [
      ( "delivery",
        [
          Alcotest.test_case "in order" `Quick test_delivery_in_order;
          Alcotest.test_case "duplicate dropped" `Quick test_delivery_duplicate_dropped;
          Alcotest.test_case "out of order buffered" `Quick
            test_delivery_out_of_order_buffered;
          Alcotest.test_case "clients independent" `Quick
            test_delivery_clients_independent;
          Alcotest.test_case "state roundtrip" `Quick test_delivery_state_roundtrip;
          QCheck_alcotest.to_alcotest prop_delivery_exactly_once_any_order;
          QCheck_alcotest.to_alcotest prop_delivery_state_digest_stable;
        ] );
      ( "dedup_cache",
        [
          Alcotest.test_case "remembers" `Quick test_dedup_cache_remembers;
          Alcotest.test_case "generational expiry" `Quick
            test_dedup_cache_generational_expiry;
          QCheck_alcotest.to_alcotest prop_dedup_cache_bounded;
          Alcotest.test_case "no re-insert from previous generation" `Quick
            test_dedup_cache_no_reinsert_from_previous;
        ] );
    ]
