query S12:
select t6.photo_id
from album_owner as t1, friends as t2, friends as t3, album_owner as t4, in_album as t5, likes as t6
where t1.album_id = 5
  and t2.user_id = t1.user_id
  and t3.user_id = 17
  and t3.friend_id = t2.friend_id
  and t4.user_id = t2.friend_id
  and t5.album_id = t4.album_id
  and t6.user_id = 42
  and t6.photo_id = t5.photo_id
