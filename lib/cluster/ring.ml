module Prng = Agg_util.Prng

type t = {
  seed : int;
  points_per_node : int;
  members : int list;
  count : int;  (** [List.length members] *)
  points : int array;
  owners : int array;
  (* Parent stream for per-file hashes; [Prng.derive] never advances it,
     so sharing one value keeps [owner]/[group] pure. Stream index -1 is
     reserved for files, node ids (>= 0) index the point streams. *)
  file_stream : Prng.t;
}

let point_position base ~node ~index = Prng.derived_bits62 (Prng.derive base node) index

let build ~seed ~points_per_node members =
  let base = Prng.create ~seed () in
  let pairs =
    List.concat_map
      (fun node ->
        List.init points_per_node (fun index -> (point_position base ~node ~index, node)))
      members
  in
  let arr = Array.of_list pairs in
  Array.sort compare arr;
  let members = List.sort_uniq compare members in
  {
    seed;
    points_per_node;
    members;
    count = List.length members;
    points = Array.map fst arr;
    owners = Array.map snd arr;
    file_stream = Prng.derive base (-1);
  }

let create ?(points_per_node = 64) ~seed ~nodes () =
  if nodes <= 0 then invalid_arg "Ring.create: nodes must be positive";
  if points_per_node <= 0 then invalid_arg "Ring.create: points_per_node must be positive";
  build ~seed ~points_per_node (List.init nodes Fun.id)

let seed t = t.seed
let points_per_node t = t.points_per_node
let members t = t.members
let node_count t = t.count
let contains t node = List.mem node t.members

let add t node =
  if node < 0 then invalid_arg "Ring.add: node must be non-negative";
  if contains t node then invalid_arg (Printf.sprintf "Ring.add: node %d already a member" node);
  build ~seed:t.seed ~points_per_node:t.points_per_node (node :: t.members)

let remove t node =
  if not (contains t node) then
    invalid_arg (Printf.sprintf "Ring.remove: node %d is not a member" node);
  if node_count t = 1 then invalid_arg "Ring.remove: cannot remove the last member";
  build ~seed:t.seed ~points_per_node:t.points_per_node
    (List.filter (fun m -> m <> node) t.members)

let file_position t file = Prng.derived_bits62 t.file_stream file

(* Index of the first point at or after [position], wrapping to 0. *)
let successor_index t position =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.points.(mid) >= position then hi := mid else lo := mid + 1
  done;
  if !lo = n then 0 else !lo

let owner t file = t.owners.(successor_index t (file_position t file))

(* Walk clockwise from the file's position, keeping each node the first
   time it is met; the duplicate check scans the [found] nodes kept so
   far (at most [replicas], single digits in practice). *)
let fill_group t ~replicas file buf =
  if replicas <= 0 then invalid_arg "Ring.fill_group: replicas must be positive";
  let want = min replicas t.count in
  if Array.length buf < want then invalid_arg "Ring.fill_group: buffer shorter than the group";
  let n = Array.length t.points in
  let start = successor_index t (file_position t file) in
  let found = ref 0 and offset = ref 0 in
  while !found < want do
    let node = t.owners.((start + !offset) mod n) in
    let seen = ref false in
    for i = 0 to !found - 1 do
      if buf.(i) = node then seen := true
    done;
    if not !seen then begin
      buf.(!found) <- node;
      incr found
    end;
    incr offset
  done;
  want

let group t ~replicas file =
  if replicas <= 0 then invalid_arg "Ring.group: replicas must be positive";
  let buf = Array.make (min replicas t.count) 0 in
  ignore (fill_group t ~replicas file buf);
  Array.to_list buf

let pp ppf t =
  Format.fprintf ppf "ring[seed=%d nodes=%a points=%d]" t.seed
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    t.members (Array.length t.points)
