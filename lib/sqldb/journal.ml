type mutation =
  | Created_table of { name : string; schema : Schema.t }
  | Created_index of { table : string; column : string }
  | Inserted of { table : string; row : Value.t array }
  | Inserted_batch of { table : string; rows : Value.t array array }
  | Deleted of { table : string; id : int }
  | Vacuumed of { table : string }

type hook = mutation -> unit
