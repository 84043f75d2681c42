let key ~profile ~rank =
  (* Deterministic per-rank length within the profile's range. *)
  let lo, hi =
    match profile.Size_dist.name with "USR" -> (12, 19) | _ -> (20, 70)
  in
  let len = lo + (rank * 2654435761 mod (hi - lo + 1)) in
  (* "key-%08d-" spelled by hand: this runs once per simulated request,
     and Printf costs two orders of magnitude more allocation than the
     key itself. *)
  let base_len = 13 in
  let buf = Bytes.make (max base_len len) 'k' in
  Bytes.blit_string "key-" 0 buf 0 4;
  let r = ref rank in
  for i = 11 downto 4 do
    Bytes.unsafe_set buf i (Char.unsafe_chr (Char.code '0' + (!r mod 10)));
    r := !r / 10
  done;
  Bytes.set buf 12 '-';
  Bytes.unsafe_to_string buf

(* Every key of one value length shares one immutable value string:
   stores only read values, and a fresh copy per key would put about
   2 M words per 100 K-item store through the minor and major heaps. *)
let preload ~insert ~profile ~seed =
  let rng = Engine.Rng.create ~seed in
  let values = Hashtbl.create 64 in
  let value_of_len len =
    match Hashtbl.find_opt values len with
    | Some v -> v
    | None ->
        let v = String.make len 'v' in
        Hashtbl.add values len v;
        v
  in
  for rank = 1 to profile.Size_dist.key_space do
    let value = value_of_len (max 1 (profile.Size_dist.value_len rng)) in
    insert (key ~profile ~rank) value
  done
