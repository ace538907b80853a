(* Unit and property tests for the simulation engine. *)

let test_schedule_ordering () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  ignore (Sim.Engine.schedule e ~delay_us:30 (fun () -> order := 3 :: !order));
  ignore (Sim.Engine.schedule e ~delay_us:10 (fun () -> order := 1 :: !order));
  ignore (Sim.Engine.schedule e ~delay_us:20 (fun () -> order := 2 :: !order));
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !order)

let test_same_time_fifo () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Engine.schedule e ~delay_us:100 (fun () -> order := i :: !order))
  done;
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check (list int)) "insertion order at equal time" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_clock_advances () =
  let e = Sim.Engine.create () in
  let seen = ref (-1) in
  ignore (Sim.Engine.schedule e ~delay_us:500 (fun () -> seen := Sim.Engine.now e));
  Sim.Engine.run e ~until_us:1_000;
  Alcotest.(check int) "callback saw its own time" 500 !seen;
  Alcotest.(check int) "clock at horizon" 1_000 (Sim.Engine.now e)

let test_run_until_horizon_only () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  ignore (Sim.Engine.schedule e ~delay_us:2_000 (fun () -> fired := true));
  Sim.Engine.run e ~until_us:1_000;
  Alcotest.(check bool) "not yet fired" false !fired;
  Sim.Engine.run e ~until_us:3_000;
  Alcotest.(check bool) "fired" true !fired

let test_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let timer = Sim.Engine.schedule e ~delay_us:100 (fun () -> fired := true) in
  Sim.Engine.cancel timer;
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_periodic () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let timer = Sim.Engine.periodic e ~interval_us:100 (fun () -> incr count) in
  Sim.Engine.run e ~until_us:550;
  Alcotest.(check int) "five firings" 5 !count;
  Sim.Engine.cancel timer;
  Sim.Engine.run e ~until_us:2_000;
  Alcotest.(check int) "no more after cancel" 5 !count

let test_periodic_no_drift () =
  (* A periodic callback that advances the clock (nested [run]) must not
     skew subsequent firings: re-arming happens at scheduled + interval,
     not at clock-at-return + interval. *)
  let e = Sim.Engine.create () in
  let times = ref [] in
  let timer =
    Sim.Engine.periodic e ~interval_us:100 (fun () ->
        times := Sim.Engine.now e :: !times;
        (* Burn 30us of virtual time inside the callback. *)
        Sim.Engine.run e ~until_us:(Sim.Engine.now e + 30))
  in
  Sim.Engine.run e ~until_us:350;
  Sim.Engine.cancel timer;
  Alcotest.(check (list int)) "firings anchored to cadence" [ 100; 200; 300 ]
    (List.rev !times)

let test_periodic_catches_up () =
  (* A callback that falls behind by more than one interval fires in
     quick succession until back on cadence (no firing is skipped). *)
  let e = Sim.Engine.create () in
  let times = ref [] in
  let first = ref true in
  let timer =
    Sim.Engine.periodic e ~interval_us:100 (fun () ->
        times := Sim.Engine.now e :: !times;
        if !first then begin
          first := false;
          Sim.Engine.run e ~until_us:(Sim.Engine.now e + 250)
        end)
  in
  Sim.Engine.run e ~until_us:450;
  Sim.Engine.cancel timer;
  Alcotest.(check (list int)) "late firings catch up"
    [ 100; 350; 350; 400 ] (List.rev !times)

let test_nested_scheduling () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay_us:10 (fun () ->
         times := Sim.Engine.now e :: !times;
         ignore
           (Sim.Engine.schedule e ~delay_us:10 (fun () ->
                times := Sim.Engine.now e :: !times))));
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check (list int)) "nested times" [ 10; 20 ] (List.rev !times)

let test_schedule_at_past_clamps () =
  let e = Sim.Engine.create () in
  let fired_at = ref (-1) in
  ignore
    (Sim.Engine.schedule e ~delay_us:100 (fun () ->
         ignore
           (Sim.Engine.schedule_at e ~time_us:50 (fun () ->
                fired_at := Sim.Engine.now e))));
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check int) "clamped to now" 100 !fired_at

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next_int64 a)
      (Sim.Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let root = Sim.Rng.create 7L in
  let a = Sim.Rng.split root in
  let b = Sim.Rng.split root in
  Alcotest.(check bool) "split streams differ" true
    (Sim.Rng.next_int64 a <> Sim.Rng.next_int64 b)

let test_rng_bounds () =
  let r = Sim.Rng.create 3L in
  for _ = 1 to 1_000 do
    let x = Sim.Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Sim.Rng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let r = Sim.Rng.create 9L in
  Alcotest.(check bool) "p=0 never" false (Sim.Rng.bernoulli r 0.);
  Alcotest.(check bool) "p=1 always" true (Sim.Rng.bernoulli r 1.)

let test_rng_exponential_positive () =
  let r = Sim.Rng.create 11L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "exp >= 0" true (Sim.Rng.exponential r ~mean:5. >= 0.)
  done

let test_rng_shuffle_permutation () =
  let r = Sim.Rng.create 13L in
  let arr = Array.init 20 Fun.id in
  Sim.Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 20 Fun.id) sorted

(* Splittable-stream properties: the parallel sweep runner derives
   per-instance seeds with [Rng.derive] and per-component streams with
   [Rng.split]; both must be deterministic (scheduling can never
   perturb them) and the resulting streams independent. *)

let prop_rng_split_deterministic =
  QCheck.Test.make ~name:"split is deterministic in the root seed"
    QCheck.(int64)
    (fun seed ->
      let draw () =
        let root = Sim.Rng.create seed in
        let a = Sim.Rng.split root in
        let b = Sim.Rng.split root in
        List.init 16 (fun _ -> Sim.Rng.next_int64 a)
        @ List.init 16 (fun _ -> Sim.Rng.next_int64 b)
      in
      draw () = draw ())

let prop_rng_split_streams_independent =
  QCheck.Test.make ~name:"split streams are pairwise distinct"
    QCheck.(int64)
    (fun seed ->
      let root = Sim.Rng.create seed in
      let a = Sim.Rng.split root in
      let b = Sim.Rng.split root in
      let sa = Array.init 64 (fun _ -> Sim.Rng.next_int64 a) in
      let sb = Array.init 64 (fun _ -> Sim.Rng.next_int64 b) in
      (* 64 draws agreeing anywhere near fully would mean the split
         leaked state; distinct gammas make collisions vanishingly
         rare, so demand the streams differ in most positions. *)
      let agree = ref 0 in
      Array.iteri (fun i x -> if Int64.equal x sb.(i) then incr agree) sa;
      !agree < 4)

let prop_rng_derive_pure =
  QCheck.Test.make ~name:"derive is a pure function of (seed, index)"
    QCheck.(pair int64 (int_bound 10_000))
    (fun (seed, index) ->
      Int64.equal (Sim.Rng.derive ~seed ~index) (Sim.Rng.derive ~seed ~index))

let prop_rng_derive_distinct =
  QCheck.Test.make ~name:"derive separates neighbouring indices"
    QCheck.(pair int64 (int_bound 1_000))
    (fun (seed, index) ->
      let a = Sim.Rng.derive ~seed ~index in
      let b = Sim.Rng.derive ~seed ~index:(index + 1) in
      (* The derived seeds must differ, and the generators they seed
         must immediately diverge. *)
      (not (Int64.equal a b))
      && Sim.Rng.next_int64 (Sim.Rng.create a)
         <> Sim.Rng.next_int64 (Sim.Rng.create b))

let test_rng_derive_rejects_negative () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.derive: index < 0") (fun () ->
      ignore (Sim.Rng.derive ~seed:1L ~index:(-1) : int64))

(* ------------------------------------------------------------------ *)
(* Event heap *)

let prop_heap_sorted =
  QCheck.Test.make ~name:"event heap pops in time order"
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Sim.Event_heap.create () in
      List.iteri (fun i time -> Sim.Event_heap.push h ~time i) times;
      let rec drain prev =
        match Sim.Event_heap.pop h with
        | None -> true
        | Some (time, _) -> time >= prev && drain time
      in
      drain min_int)

let prop_heap_stable_at_equal_times =
  QCheck.Test.make ~name:"equal timestamps pop in insertion order"
    QCheck.(int_range 1 50)
    (fun count ->
      let h = Sim.Event_heap.create () in
      for i = 0 to count - 1 do
        Sim.Event_heap.push h ~time:42 i
      done;
      let rec drain expected =
        match Sim.Event_heap.pop h with
        | None -> expected = count
        | Some (_, v) -> v = expected && drain (expected + 1)
      in
      drain 0)

(* Compaction removes filtered entries but must not disturb the pop
   order of survivors: original (time, seq) keys are preserved. *)
let prop_heap_compact_preserves_order =
  QCheck.Test.make ~name:"compact preserves survivor pop order"
    QCheck.(list (int_bound 1_000))
    (fun times ->
      let keep v = v mod 3 <> 0 in
      let h = Sim.Event_heap.create () in
      List.iteri (fun i time -> Sim.Event_heap.push h ~time i) times;
      Sim.Event_heap.compact h ~keep;
      let survivors =
        List.length (List.filteri (fun i _ -> keep i) times)
      in
      let rec drain acc =
        match Sim.Event_heap.pop h with
        | None -> List.rev acc
        | Some (time, v) -> drain ((time, v) :: acc)
      in
      let popped = drain [] in
      let rec ordered = function
        | (ta, va) :: ((tb, vb) :: _ as rest) ->
          (* Nondecreasing time; insertion order breaks ties (values
             were pushed in ascending order, so seq order = value
             order). *)
          (ta < tb || (ta = tb && va < vb)) && ordered rest
        | _ -> true
      in
      List.length popped = survivors
      && List.for_all (fun (_, v) -> keep v) popped
      && ordered popped)

(* The engine keeps one event heap: whatever the mix of delays and
   cancellations, the surviving timers fire in (time, scheduling order),
   each at its own scheduled time — the order a stable sort of the
   schedule by delay gives. *)
let prop_engine_fires_in_model_order =
  QCheck.Test.make ~name:"engine fires in stable delay order"
    QCheck.(list (pair (int_bound 500) bool))
    (fun specs ->
      let e = Sim.Engine.create () in
      let fired = ref [] in
      let timers =
        List.mapi
          (fun i (delay_us, _) ->
            Sim.Engine.schedule e ~delay_us (fun () ->
                fired := (i, Sim.Engine.now e) :: !fired))
          specs
      in
      List.iter2
        (fun timer (_, cancelled) -> if cancelled then Sim.Engine.cancel timer)
        timers specs;
      Sim.Engine.run_until_quiescent e;
      let expected =
        List.mapi (fun i (delay_us, cancelled) -> (i, delay_us, cancelled)) specs
        |> List.filter (fun (_, _, cancelled) -> not cancelled)
        |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b)
        |> List.map (fun (i, delay_us, _) -> (i, delay_us))
      in
      List.rev !fired = expected)

(* Engine-level purge: cancelling queued timers past the threshold must
   shrink the pending count without firing anything. *)
let test_engine_purges_cancelled () =
  let e = Sim.Engine.create ~seed:1L () in
  let fired = ref 0 in
  let timers =
    List.init 200 (fun i ->
        Sim.Engine.schedule e ~delay_us:(1_000 + i) (fun () -> incr fired))
  in
  Alcotest.(check int) "all queued" 200 (Sim.Engine.pending e);
  List.iter Sim.Engine.cancel timers;
  Alcotest.(check bool) "cancelled entries purged lazily" true
    (Sim.Engine.pending e < 200);
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check int) "nothing fired" 0 !fired;
  Alcotest.(check int) "no events processed" 0 (Sim.Engine.processed e);
  Alcotest.(check int) "heap drained" 0 (Sim.Engine.pending e)

(* A periodic timer that keeps running while unrelated timers are
   cancelled in bulk must be unaffected by compaction. *)
let test_engine_compact_keeps_live_periodic () =
  let e = Sim.Engine.create ~seed:1L () in
  let ticks = ref 0 in
  let _p = Sim.Engine.periodic e ~interval_us:10 (fun () -> incr ticks) in
  let doomed =
    List.init 300 (fun i ->
        Sim.Engine.schedule e ~delay_us:(10_000 + i) (fun () ->
            Alcotest.fail "cancelled timer fired"))
  in
  List.iter Sim.Engine.cancel doomed;
  Sim.Engine.run e ~until_us:100;
  Alcotest.(check int) "periodic survived compaction" 10 !ticks

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "schedule ordering" `Quick test_schedule_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "run horizon" `Quick test_run_until_horizon_only;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "periodic" `Quick test_periodic;
          Alcotest.test_case "periodic no drift" `Quick test_periodic_no_drift;
          Alcotest.test_case "periodic catches up" `Quick
            test_periodic_catches_up;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "schedule_at clamps" `Quick
            test_schedule_at_past_clamps;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick
            test_rng_bernoulli_extremes;
          Alcotest.test_case "exponential positive" `Quick
            test_rng_exponential_positive;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_rng_split_deterministic;
          QCheck_alcotest.to_alcotest prop_rng_split_streams_independent;
          QCheck_alcotest.to_alcotest prop_rng_derive_pure;
          QCheck_alcotest.to_alcotest prop_rng_derive_distinct;
          Alcotest.test_case "derive rejects negative index" `Quick
            test_rng_derive_rejects_negative;
        ] );
      ( "timer_ordering",
        [ QCheck_alcotest.to_alcotest prop_engine_fires_in_model_order ] );
      ( "event_heap",
        [
          QCheck_alcotest.to_alcotest prop_heap_sorted;
          QCheck_alcotest.to_alcotest prop_heap_stable_at_equal_times;
          QCheck_alcotest.to_alcotest prop_heap_compact_preserves_order;
          Alcotest.test_case "engine purges cancelled timers" `Quick
            test_engine_purges_cancelled;
          Alcotest.test_case "compaction keeps live periodic" `Quick
            test_engine_compact_keeps_live_periodic;
        ] );
    ]
