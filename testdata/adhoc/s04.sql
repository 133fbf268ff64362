query S04:
select t3.album_id
from friends as t1, friends as t2, album_owner as t3
where t1.user_id = 17
  and t2.user_id = 42
  and t1.friend_id = t2.friend_id
  and t3.user_id = t1.friend_id
