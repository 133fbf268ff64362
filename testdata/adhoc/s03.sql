query S03:
select t3.photo_id
from album_owner as t1, friends as t2, likes as t3
where t1.album_id = 5
  and t2.user_id = 17
  and t2.friend_id = t1.user_id
  and t3.user_id = t1.user_id
