(* One generation: an open-addressing set of non-negative ints with
   linear probing. [empty] marks a free slot, so ids must be >= 0. The
   table doubles whenever it would pass half full, and [set_clear]
   keeps the grown array, so a rotated-out generation is reused as the next
   current one without reallocating. *)
let empty = -1

type set = { mutable slots : int array; mutable count : int }

let set_create () = { slots = Array.make 16 empty; count = 0 }

(* Multiplicative hashing: frame ids are a dense counter, and the
   multiply by an odd constant also spreads ids that share their low
   bits (a stride that is a multiple of the table size). *)
let slot_of slots id =
  let mask = Array.length slots - 1 in
  (id * 0x9E3779B97F4A7C1) lsr 17 land mask

let rec probe slots id i =
  let x = slots.(i) in
  if x = id || x = empty then i
  else probe slots id ((i + 1) land (Array.length slots - 1))

let set_mem s id = s.slots.(probe s.slots id (slot_of s.slots id)) = id

let insert_new slots id = slots.(probe slots id (slot_of slots id)) <- id

let grow s =
  let old = s.slots in
  let slots = Array.make (2 * Array.length old) empty in
  Array.iter (fun id -> if id <> empty then insert_new slots id) old;
  s.slots <- slots

(* Precondition: [id] is not in [s]. *)
let set_add s id =
  if 2 * (s.count + 1) > Array.length s.slots then grow s;
  insert_new s.slots id;
  s.count <- s.count + 1

let set_clear s =
  if s.count > 0 then Array.fill s.slots 0 (Array.length s.slots) empty;
  s.count <- 0

type t = { generation_size : int; mutable current : set; mutable previous : set }

let create ?(generation_size = 65536) () =
  if generation_size < 1 then invalid_arg "Dedup_cache.create: size < 1";
  { generation_size; current = set_create (); previous = set_create () }

let check_id fn id =
  if id < 0 then invalid_arg ("Dedup_cache." ^ fn ^ ": negative id")

let mem t id =
  check_id "mem" id;
  set_mem t.current id || set_mem t.previous id

(* An id already remembered — in either generation — must not be
   re-inserted: adding a [previous]-generation id to [current] would
   double-count it in [size] and retain it past its window, inflating
   memory exactly when flood-heavy traffic re-touches old ids. *)
let add t id =
  check_id "add" id;
  if not (set_mem t.current id || set_mem t.previous id) then begin
    if t.current.count >= t.generation_size then begin
      let dropped = t.previous in
      set_clear dropped;
      t.previous <- t.current;
      t.current <- dropped
    end;
    set_add t.current id
  end

let size t = t.current.count + t.previous.count
