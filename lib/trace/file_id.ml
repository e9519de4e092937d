type t = int

let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash
let pp ppf id = Format.fprintf ppf "f%d" id

module Interner = struct
  (* Open addressing with linear probing over a power-of-two table;
     [slots.(i) < 0] marks a free slot. *)
  type t = {
    mutable bits : int;
    mutable keys : int array;
    mutable slots : int array;  (** the dense id stored under [keys.(i)] *)
    mutable raws : int array;  (** dense id -> raw id *)
    mutable count : int;
  }

  let min_bits = 4

  let create () =
    let size = 1 lsl min_bits in
    {
      bits = min_bits;
      keys = Array.make size 0;
      slots = Array.make size (-1);
      raws = Array.make (size / 2) 0;
      count = 0;
    }

  (* Multiplicative (Fibonacci) hashing: the top [bits] bits of the
     63-bit product. *)
  let home bits key = (key * 0x9E3779B97F4A7C1) lsr (63 - bits)

  let rec probe keys slots mask key i =
    let d = slots.(i) in
    if d < 0 || keys.(i) = key then i else probe keys slots mask key ((i + 1) land mask)

  (* Doubles the table; called at half load, so probe runs stay short. *)
  let grow t =
    let bits = t.bits + 1 in
    let size = 1 lsl bits in
    let keys = Array.make size 0 and slots = Array.make size (-1) in
    for d = 0 to t.count - 1 do
      let key = t.raws.(d) in
      let i = probe keys slots (size - 1) key (home bits key) in
      keys.(i) <- key;
      slots.(i) <- d
    done;
    let raws = Array.make (size / 2) 0 in
    Array.blit t.raws 0 raws 0 t.count;
    t.bits <- bits;
    t.keys <- keys;
    t.slots <- slots;
    t.raws <- raws

  let intern t key =
    let i = probe t.keys t.slots ((1 lsl t.bits) - 1) key (home t.bits key) in
    let d = t.slots.(i) in
    if d >= 0 then d
    else begin
      let d = t.count in
      t.keys.(i) <- key;
      t.slots.(i) <- d;
      t.raws.(d) <- key;
      t.count <- d + 1;
      if 2 * t.count >= 1 lsl t.bits then grow t;
      d
    end

  let raw_ids t = Array.sub t.raws 0 t.count
end

module Namespace = struct
  type id = int

  type t = { by_name : (string, id) Hashtbl.t; names : string Agg_util.Vec.t }

  let create () = { by_name = Hashtbl.create 256; names = Agg_util.Vec.create () }

  let intern t name =
    match Hashtbl.find_opt t.by_name name with
    | Some id -> id
    | None ->
        let id = Agg_util.Vec.length t.names in
        Hashtbl.replace t.by_name name id;
        Agg_util.Vec.push t.names name;
        id

  let find t name = Hashtbl.find_opt t.by_name name

  let name t id =
    if id < 0 || id >= Agg_util.Vec.length t.names then None else Some (Agg_util.Vec.get t.names id)

  let count t = Agg_util.Vec.length t.names
  let iter t f = Agg_util.Vec.iteri (fun id n -> f n id) t.names
end
