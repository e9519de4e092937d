open Agg_util

type t = { events : Event.t Vec.t }

let create () = { events = Vec.create () }
let append t e = Vec.push t.events e

let add_access t ?client ?op file =
  append t (Event.make ?client ?op ~seq:(Vec.length t.events) file)

let length t = Vec.length t.events
let get t i = Vec.get t.events i
let iter f t = Vec.iter f t.events
let fold f acc t = Vec.fold f acc t.events

let files t = Array.init (length t) (fun i -> (Vec.get t.events i).file)

let dense_ids t =
  let n = length t in
  let ids = Array.make n 0 in
  let lo = ref 0 and hi = ref (-1) in
  for i = 0 to n - 1 do
    let f = (Vec.get t.events i).file in
    ids.(i) <- f;
    if f < !lo then lo := f;
    if f > !hi then hi := f
  done;
  if !lo >= 0 && !hi < n then (ids, Array.init (!hi + 1) Fun.id)
  else begin
    let interner = File_id.Interner.create () in
    for i = 0 to n - 1 do
      ids.(i) <- File_id.Interner.intern interner ids.(i)
    done;
    (ids, File_id.Interner.raw_ids interner)
  end

let of_files ?client fs =
  let t = create () in
  List.iter (fun f -> add_access t ?client f) fs;
  t

let of_events es =
  let t = create () in
  List.iter (append t) es;
  t

let to_events t = Vec.to_list t.events

let distinct_files t =
  let seen = Hashtbl.create 1024 in
  iter (fun (e : Event.t) -> Hashtbl.replace seen e.file ()) t;
  Hashtbl.length seen

let renumber events =
  let t = create () in
  Vec.iteri (fun i (e : Event.t) -> append t { e with seq = i }) events;
  t

let sub t ~pos ~len = renumber (Vec.sub t.events ~pos ~len)

let concat a b =
  let t = create () in
  iter (append t) a;
  iter (fun (e : Event.t) -> append t { e with seq = length t }) b;
  t
