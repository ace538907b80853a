(* Parallel-array binary min-heap: times and tie-breaking sequence
   numbers live in unboxed int arrays, events in a companion array, so
   a push allocates nothing in steady state (the previous representation
   boxed a fresh 3-field entry record per event). *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable events : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  {
    times = [||];
    seqs = [||];
    events = [||];
    len = 0;
    next_seq = 0;
  }

let earlier t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let ev = t.events.(i) in
  t.events.(i) <- t.events.(j);
  t.events.(j) <- ev

let sift_up t start =
  let i = ref start in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if earlier t !i parent then begin
      swap t !i parent;
      i := parent
    end
    else continue := false
  done

let sift_down t start =
  let i = ref start in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.len && earlier t l !smallest then smallest := l;
    if r < t.len && earlier t r !smallest then smallest := r;
    if !smallest <> !i then begin
      swap t !i !smallest;
      i := !smallest
    end
    else continue := false
  done

let grow t witness =
  let cap = max 64 (2 * Array.length t.times) in
  let times = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  let events = Array.make cap witness in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.events 0 events 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.events <- events

let push t ~time event =
  if t.len >= Array.length t.times then grow t event;
  let i = t.len in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.events.(i) <- event;
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t i

let is_empty t = t.len = 0
let size t = t.len

let min_time t =
  if t.len = 0 then invalid_arg "Event_heap.min_time: empty heap";
  t.times.(0)

let pop_min t =
  if t.len = 0 then invalid_arg "Event_heap.pop_min: empty heap";
  let ev = t.events.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.times.(0) <- t.times.(t.len);
    t.seqs.(0) <- t.seqs.(t.len);
    t.events.(0) <- t.events.(t.len);
    (* Drop the vacated slot's reference so the GC can reclaim it. *)
    t.events.(t.len) <- t.events.(0);
    sift_down t 0
  end;
  ev

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    let ev = pop_min t in
    Some (time, ev)
  end

let compact t ~keep =
  let old_len = t.len in
  let j = ref 0 in
  for i = 0 to old_len - 1 do
    if keep t.events.(i) then begin
      if !j < i then begin
        t.times.(!j) <- t.times.(i);
        t.seqs.(!j) <- t.seqs.(i);
        t.events.(!j) <- t.events.(i)
      end;
      incr j
    end
  done;
  t.len <- !j;
  (* Release references of removed entries. *)
  if t.len > 0 then
    for i = t.len to old_len - 1 do
      t.events.(i) <- t.events.(0)
    done;
  (* Heapify: original (time, seq) keys are preserved, so the pop order
     of surviving entries is exactly what it would have been — keys are
     unique, making heap-internal layout unobservable. *)
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done
