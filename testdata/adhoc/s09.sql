query S09:
select t3.photo_id, t5.friend_id
from album_owner as t1, album_owner as t2, in_album as t3, likes as t4, friends as t5
where t1.album_id = 5
  and t2.user_id = t1.user_id
  and t3.album_id = t2.album_id
  and t4.user_id = 17
  and t4.photo_id = t3.photo_id
  and t5.user_id = 17
  and t5.friend_id = t1.user_id
