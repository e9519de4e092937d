let take n list =
  let rec loop n acc = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: rest -> loop (n - 1) (x :: acc) rest
  in
  loop n [] list

(* Small groups: the requested file plus its most likely immediate
   successors. *)
let immediate ~successors ~want file = take want (List.filter (fun s -> s <> file) (successors file))

(* Large groups: follow the chain of most-likely immediate successors as
   far as possible. When the chain stalls (no metadata, or only files
   already in the group), fall back to the next-ranked successor of the
   most recently added member that still has one. *)
let transitive ~successors ~want file =
  (* [members] is newest-first and [file] is checked separately *)
  let members = ref [] in
  let count = ref 0 in
  let add f =
    members := f :: !members;
    incr count
  in
  let seen s = s = file || List.mem s !members in
  let first_unseen candidates = List.find_opt (fun s -> not (seen s)) candidates in
  let rec extend current =
    if !count < want then
      match first_unseen (successors current) with
      | Some next ->
          add next;
          extend next
      | None -> fallback (file :: List.rev !members)
  (* [chain] lists group members oldest-first; resume from the deepest
     member that still offers an unexplored successor. *)
  and fallback chain =
    if !count < want then
      let candidates = List.rev chain |> List.filter_map (fun m -> first_unseen (successors m)) in
      match candidates with
      | next :: _ ->
          add next;
          extend next
      | [] -> ()
  in
  extend file;
  List.rev !members

let build ~successors ~group_size file =
  if group_size <= 0 then invalid_arg "Model_group.build: group_size must be positive";
  let want = group_size - 1 in
  let members =
    if want = 0 then []
    else if group_size <= 3 then immediate ~successors ~want file
    else transitive ~successors ~want file
  in
  file :: members

let of_tracker tracker = build ~successors:(Agg_successor.Tracker.successors tracker)
